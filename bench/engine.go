package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"mobic/internal/cluster"
	"mobic/internal/experiment"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/obs"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// figure is one paper figure the paper-figs workload regenerates, with the
// sweep grid it runs, so set-up and the spot check can rebuild its cells.
type figure struct {
	id     string
	run    func(context.Context, experiment.Runner) (*experiment.Result, error)
	params func(x float64) scenario.Params
	xs     []float64
}

var paperFigures = []figure{
	{"fig3", experiment.Fig3, scenario.Base, scenario.TxSweep()},
	{"fig5", experiment.Fig5, scenario.Sparse, scenario.TxSweep()},
	{"fig6a", experiment.Fig6a, func(v float64) scenario.Params { return scenario.Mobility(v, 0) }, scenario.SpeedSweep()},
	{"fig6b", experiment.Fig6b, func(v float64) scenario.Params { return scenario.Mobility(v, 30) }, scenario.SpeedSweep()},
}

// paperCurves maps each series name of Figures 3-6 to its algorithm.
var paperCurves = map[string]cluster.Algorithm{"lowest-id(lcc)": cluster.LCC, "mobic": cluster.MOBIC}

// paperSize is the paper-figs work: Runner.Seeds replications of every
// cell at the paper's 900 s (Table 1), two sweep workers.
type paperSize struct {
	seeds     int
	duration  float64
	setupReps int
}

func paperSizeFor(opts options) paperSize {
	if opts.tiny {
		return paperSize{seeds: 1, duration: 60, setupReps: 1}
	}
	return paperSize{seeds: 5, duration: scenario.DefaultDuration, setupReps: 9}
}

// runPaperFigs regenerates Figures 3, 5, 6(a) and 6(b). Set-up builds every
// cell's network (trajectory generation and wiring) without running it.
func runPaperFigs(ctx context.Context, s *trial) (*measurement, error) {
	m := newMeasurement()
	size := paperSizeFor(s.opts)
	baseSeed := 1 + uint64(size.seeds)*s.opts.seed
	setDuration := func(cfg *simnet.Config) { cfg.Duration = size.duration }
	runner := experiment.Runner{
		Seeds:    size.seeds,
		BaseSeed: baseSeed,
		Workers:  2,
		Obs:      s.rec,
		Mutate: func(cfg *simnet.Config) {
			setDuration(cfg)
			s.mutate(cfg)
		},
	}

	setup, err := medianSetup(size.setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		for _, f := range paperFigures {
			for _, x := range f.xs {
				for _, alg := range paperCurves {
					for rep := 0; rep < size.seeds; rep++ {
						p := f.params(x)
						p.Seed = baseSeed + uint64(rep)
						cfg, err := p.Config(alg)
						if err != nil {
							return 0, err
						}
						setDuration(&cfg)
						if _, err := simnet.New(cfg); err != nil {
							return 0, err
						}
					}
				}
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = setup

	if err := s.beginMeasure(); err != nil {
		return nil, err
	}
	since := s.start.UnixNano()
	root := s.tr.add("paper-figs", 0, "", s.start, s.start)
	results := make(map[string]*experiment.Result)
	for _, f := range paperFigures {
		t0 := time.Now()
		res, err := f.run(ctx, runner)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.id, err)
		}
		s.tr.add(f.id, root, "", t0, time.Now())
		results[f.id] = res
	}
	wall := time.Since(s.start).Seconds()
	if err := s.endMeasure(m); err != nil {
		return nil, err
	}
	s.engineSpans(root, since)

	cells := s.rec.spanSeconds(obs.SpanCell, since)
	want := 0
	for _, f := range paperFigures {
		want += len(f.xs) * len(paperCurves) * size.seeds
	}
	m.attempted = want
	if len(cells) != want {
		m.fail("ran %d cell replications, want %d", len(cells), want)
	}
	ms := scale(cells, 1e3)
	m.e2e["wall_s"] = wall
	m.e2e["latency_p50_ms"] = quantile(ms, 0.5)
	m.e2e["latency_p90_ms"] = quantile(ms, 0.9)
	m.e2e["goodput_ops_s"] = float64(len(cells)) / wall
	busy := sum(cells)
	m.layers["experiment.cells"] = float64(len(cells))
	m.layers["experiment.cell_busy_s"] = busy
	m.layers["experiment.worker_util"] = ratio(busy, wall*float64(runner.Workers))

	m.outputs = paperOutputs(results)
	checkPaperFigs(ctx, s.opts, runner, results, m)
	return m, nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// paperOutputs is every series value of every figure, in the shape pinned
// in testdata: figure -> series -> {"y", "ci"}.
func paperOutputs(results map[string]*experiment.Result) map[string]any {
	out := make(map[string]any, len(results))
	for id, res := range results {
		series := make(map[string]any, len(res.Series))
		for _, sr := range res.Series {
			series[sr.Name] = map[string][]float64{"y": sr.Y, "ci": sr.CI}
		}
		out[id] = series
	}
	return out
}

// checkPaperFigs checks the figures against the pinned values (seeds 1 and
// 2), checks every value is a finite non-negative count, and recomputes one
// seed-chosen point of one figure serially, which must match the parallel
// sweep exactly.
func checkPaperFigs(ctx context.Context, opts options, runner experiment.Runner, results map[string]*experiment.Result, m *measurement) {
	if _, err := checkPinned(opts, m.outputs); err != nil {
		m.fail("%v", err)
	}
	for _, f := range paperFigures {
		res := results[f.id]
		if len(res.Series) != len(paperCurves) {
			m.fail("%s: %d series, want %d", f.id, len(res.Series), len(paperCurves))
			continue
		}
		for _, sr := range res.Series {
			for i, y := range sr.Y {
				if len(sr.Y) != len(f.xs) || math.IsNaN(y) || math.IsInf(y, 0) || y < 0 || sr.CI[i] < 0 {
					m.fail("%s %s: bad value %g (ci %g) at x=%d", f.id, sr.Name, y, sr.CI[i], i)
				}
			}
		}
	}

	rng := rand.New(rand.NewPCG(opts.seed, 0x5eed))
	f := paperFigures[rng.IntN(len(paperFigures))]
	xi := rng.IntN(len(f.xs))
	sr := results[f.id].Series[rng.IntN(len(paperCurves))]
	serial := runner
	serial.Workers = 1
	serial.Obs = nil
	serial.Mutate = func(cfg *simnet.Config) { cfg.Duration = paperSizeFor(opts).duration }
	stats, err := serial.RunCells(ctx, []experiment.Cell{{Params: f.params(f.xs[xi]), Algorithm: paperCurves[sr.Name]}})
	if err != nil {
		m.fail("recomputing %s %s x=%g: %v", f.id, sr.Name, f.xs[xi], err)
		return
	}
	if got := stats[0].CHChanges; got != sr.Y[xi] {
		m.fail("%s %s x=%g: sweep says %v, serial recompute %v", f.id, sr.Name, f.xs[xi], sr.Y[xi], got)
	}
}

// megaSize is the mega-10k work: Table-1 density scaled to N nodes, a
// warm-up past the listen-only first round, then a timed window.
type megaSize struct {
	n         int
	warm      float64
	timed     float64
	setupReps int
}

func megaSizeFor(opts options) megaSize {
	if opts.tiny {
		return megaSize{n: 1000, warm: 6, timed: 20, setupReps: 1}
	}
	return megaSize{n: 10000, warm: 6, timed: 60, setupReps: 3}
}

// runMega runs 10,000 nodes at the paper's density on the tiled planner.
// Set-up is simnet.New plus the warm-up; the timed window runs the rest.
func runMega(ctx context.Context, s *trial) (*measurement, error) {
	m := newMeasurement()
	size := megaSizeFor(s.opts)
	// 670 m per 50 nodes (Table 1), kept as N grows.
	side := scenario.SmallSide * math.Sqrt(float64(size.n)/scenario.DefaultN)
	area := geom.Square(side)
	cfg := simnet.Config{
		N:         size.n,
		Area:      area,
		Duration:  size.warm + size.timed,
		Seed:      s.opts.seed,
		Algorithm: cluster.MOBIC,
		Mobility:  &mobility.RandomWaypoint{Area: area, MaxSpeed: 20},
		TxRange:   250,
		Tiles:     2,
		Obs:       s.rec,
	}
	s.mutate(&cfg)

	var net *simnet.Network
	var generate float64
	setup, err := medianSetup(size.setupReps, func() (time.Duration, error) {
		net = nil
		runtime.GC() // drop the previous rep's network before building the next
		gen0 := s.tally().genNs
		t0 := time.Now()
		n, err := simnet.New(cfg)
		if err != nil {
			return 0, err
		}
		n.RunUntil(size.warm)
		d := time.Since(t0)
		net = n
		generate = float64(s.tally().genNs-gen0) / 1e9
		s.tr.add("setup", 0, "", t0, t0.Add(d))
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = setup

	if err := s.beginMeasure(); err != nil {
		return nil, err
	}
	since := s.start.UnixNano()
	res, err := net.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	wall := time.Since(s.start).Seconds()
	if err := s.endMeasure(m); err != nil {
		return nil, err
	}
	s.engineSpans(s.tr.add("run", 0, "", s.start, time.Now()), since)

	// RunContext reports one span per 10 simulated seconds.
	chunks := scale(s.rec.spanSeconds(obs.SpanSimChunk, since), 1e3)
	want := int(math.Ceil(size.timed / 10))
	m.attempted = want
	m.e2e["wall_s"] = wall
	m.e2e["latency_p50_ms"] = quantile(chunks, 0.5)
	m.e2e["latency_p90_ms"] = quantile(chunks, 0.9)
	m.e2e["goodput_ops_s"] = float64(len(chunks)) / wall
	// The timed network's trajectories were generated during set-up.
	m.layers["mobility.generate_s"] = generate

	m.outputs = map[string]any{
		"events_fired": res.EventsFired,
		"final_heads":  res.FinalHeads,
		"ch_changes":   res.Metrics.CHChanges,
	}
	switch _, err := checkPinned(s.opts, m.outputs); {
	case err != nil:
		m.fail("%v", err)
	case len(chunks) != want:
		m.fail("ran %d scheduler chunks, want %d", len(chunks), want)
	case res.EventsFired == 0 || res.FinalHeads <= 0 || res.FinalHeads >= size.n || res.Metrics.CHChanges <= 0:
		m.fail("implausible run: %d events, %d heads, %d CH changes", res.EventsFired, res.FinalHeads, res.Metrics.CHChanges)
	}
	return m, nil
}
