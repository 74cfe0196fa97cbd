package experiment

import (
	"context"

	"mobic/internal/cluster"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// Timeline shows clusterhead churn over simulated time at Tx = 150 m: the
// initial formation burst followed by the maintenance-phase rate, for the
// LCC baseline and MOBIC. It demonstrates that the paper's aggregate CS
// numbers are maintenance churn, not formation artifacts, and makes the
// stability gap visible window by window.
func Timeline(ctx context.Context, r Runner) (*Result, error) {
	xs, series, _, err := churnTimeline(ctx, r, 0)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "timeline",
		Title:  "Clusterhead churn over time (Tx 150 m, 60 s windows)",
		XLabel: "simulated time (s)",
		YLabel: "clusterhead changes per window",
		X:      xs,
		Series: series,
		Notes: []string{
			"The first window contains the formation burst; later windows are",
			"steady-state maintenance churn, where MOBIC's advantage lives.",
		},
	}, nil
}

// churnWindow is the width of churnTimeline's windows in seconds.
const churnWindow = 60.0

// churnTimeline runs LCC and MOBIC at Tx = 150 m and returns the mean
// clusterhead changes per churnWindow, one series per algorithm, on one
// time axis. With victims > 0, nodes 0..victims-1 crash permanently at
// min(300 s, duration/3); crashAt reports that time.
func churnTimeline(ctx context.Context, r Runner, victims int32) (xs []float64, series []Series, crashAt float64, err error) {
	type churn struct {
		windows []int
		crashAt float64
	}
	algs := []cluster.Algorithm{cluster.LCC, cluster.MOBIC}
	cells := make([]Cell, len(algs))
	for ai, alg := range algs {
		cells[ai] = Cell{
			Params:    scenario.Base(150),
			Algorithm: alg,
			Mutate:    func(cfg *simnet.Config) { cfg.TimelineWindow = churnWindow },
		}
	}
	reps, err := replicate(ctx, r, 0, len(cells), cellConfig(cells),
		func(ctx context.Context, _ int, cfg simnet.Config) (churn, error) {
			var c churn
			if victims > 0 {
				c.crashAt = min(300, cfg.Duration/3)
				for v := int32(0); v < victims; v++ {
					cfg.Failures = append(cfg.Failures, simnet.NodeFailure{Node: v, At: c.crashAt})
				}
			}
			net, err := simnet.New(cfg)
			if err != nil {
				return c, err
			}
			if _, err := net.RunContext(ctx); err != nil {
				return c, err
			}
			c.windows, _ = net.Timeline()
			return c, nil
		}, nil)
	if err != nil {
		return nil, nil, 0, err
	}

	// One time axis, as long as the longest replication's timeline.
	width := 0
	for _, cell := range reps {
		for _, c := range cell {
			width = max(width, len(c.windows))
		}
	}
	for i := 0; i < width; i++ {
		xs = append(xs, churnWindow/2+float64(i)*churnWindow)
	}
	series = make([]Series, len(algs))
	for ai, alg := range algs {
		y := make([]float64, width)
		for _, c := range reps[ai] {
			for i, n := range c.windows {
				y[i] += float64(n)
			}
		}
		for i := range y {
			y[i] /= float64(len(reps[ai]))
		}
		series[ai] = Series{Name: alg.Name, Y: y}
	}
	return xs, series, reps[0][0].crashAt, nil
}
