package experiment

import (
	"context"
	"slices"

	"mobic/internal/cluster"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/simnet"
)

// Convergence tests the paper's O(d) convergence claim (Theorem 1's
// context: LCC-style clustering "converges in O(d) time, where d is the
// diameter of the network"): on static random topologies of growing area
// (and hence growing hop diameter), it measures the time from cold start
// until the cluster structure stops changing, alongside the topology's hop
// diameter.
func Convergence(ctx context.Context, r Runner) (*Result, error) {
	// Growing areas at constant density: diameter grows with the side.
	sides := []float64{400, 800, 1200, 1600, 2000}
	const txRange = 200.0
	const density = 50.0 / (670.0 * 670.0) // the paper's node density

	// A static config is no scenario.Params, so it is built from the seed.
	config := func(si int, seed uint64) (simnet.Config, error) {
		side := sides[si]
		n := max(5, int(density*side*side))
		area := geom.Square(side)
		return simnet.Config{
			N:         n,
			Area:      area,
			Duration:  300,
			Seed:      seed,
			Algorithm: cluster.LCC,
			Mobility:  &mobility.Static{Area: area},
			TxRange:   txRange,
		}, nil
	}
	reps, err := replicate(ctx, r, 0, len(sides), config, convergenceTime, nil)
	if err != nil {
		return nil, err
	}
	timeSeries := Series{Name: "convergence-time(s)", Y: make([]float64, len(sides))}
	diamSeries := Series{Name: "hop-diameter", Y: make([]float64, len(sides))}
	for si := range sides {
		m := meanOf(reps[si])
		timeSeries.Y[si], diamSeries.Y[si] = m[0], m[1]
	}
	return &Result{
		ID:     "convergence",
		Title:  "Convergence time vs network diameter (static topologies, LCC)",
		XLabel: "area side (m), constant density",
		YLabel: "time to stable clustering (s)",
		X:      sides,
		Series: []Series{timeSeries, diamSeries},
		Notes: []string{
			"The paper cites O(d) convergence; time should scale with the hop",
			"diameter (second series) at ~one beacon interval per hop.",
		},
	}, nil
}

// convergenceTime runs cfg until the role assignment is stable for three
// beacon intervals and returns the time of the last change and the static
// topology's hop diameter.
func convergenceTime(ctx context.Context, _ int, cfg simnet.Config) (samples, error) {
	net, err := simnet.New(cfg)
	if err != nil {
		return samples{}, err
	}
	bi := cfg.BroadcastInterval
	if bi == 0 {
		bi = simnet.DefaultBroadcastInterval
	}
	lastChange := 0.0
	prev := rolesOf(net)
	for t := bi; t <= cfg.Duration; t += bi {
		if err := ctx.Err(); err != nil {
			return samples{}, err
		}
		net.RunUntil(t)
		cur := rolesOf(net)
		if !slices.Equal(prev, cur) {
			lastChange = t
		}
		prev = cur
		if t-lastChange >= 3*bi && lastChange > 0 {
			break
		}
	}
	return samples{{lastChange}, {float64(net.Topology().Diameter())}}, nil
}

type roleState struct {
	role cluster.Role
	head int32
}

func rolesOf(net *simnet.Network) []roleState {
	snap := net.Snapshot()
	out := make([]roleState, len(snap))
	for i, s := range snap {
		out[i] = roleState{role: s.Role, head: s.Head}
	}
	return out
}
