package experiment

import (
	"context"

	"mobic/internal/cluster"
	"mobic/internal/routing"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// Flooding regenerates the A9 motivation experiment: the per-flood
// transmission count of flat flooding vs cluster-based flooding on MOBIC's
// clusters, sampled over the run at each transmission range.
func Flooding(ctx context.Context, r Runner) (*Result, error) {
	xs := scenario.TxSweep()
	cells := gridCells(txGrid(baseCurve(cluster.MOBIC)))
	reps, err := replicate(ctx, r, 0, len(cells), cellConfig(cells), floodSamples, nil)
	if err != nil {
		return nil, err
	}
	flat := Series{Name: "flat-flood", Y: make([]float64, len(xs))}
	clustered := Series{Name: "cluster-flood", Y: make([]float64, len(xs))}
	coverage := Series{Name: "cluster-coverage(%)", Y: make([]float64, len(xs))}
	for xi := range xs {
		m := meanOf(reps[xi])
		flat.Y[xi], clustered.Y[xi], coverage.Y[xi] = m[0], m[1], 100*m[2]
	}
	return &Result{
		ID:     "flooding",
		Title:  "A9: flat vs cluster-based flooding load (MOBIC clusters)",
		XLabel: "transmission range (m)",
		YLabel: "transmissions per network-wide flood",
		X:      xs,
		Series: []Series{flat, clustered, coverage},
		Notes: []string{
			"cluster-flood forwards only via clusterheads and gateways;",
			"coverage is relative to flat flooding's reach from the same source.",
		},
	}, nil
}

// floodEvery is the period of floodSamples' floods in simulated seconds;
// the first is at floodEvery, so a shorter run has no sample.
const floodEvery = 100.0

// floodSamples runs one scenario, pausing every floodEvery seconds to flood
// from node 0 over the instantaneous topology and cluster structure. It
// returns the flat and clustered transmission counts and the clustered
// coverage.
func floodSamples(ctx context.Context, _ int, cfg simnet.Config) (samples, error) {
	var out samples
	if cfg.Duration < floodEvery {
		return out, tooShort("flooding", floodEvery, cfg.Duration)
	}
	net, err := simnet.New(cfg)
	if err != nil {
		return out, err
	}
	for t := floodEvery; t <= cfg.Duration; t += floodEvery {
		topo, heads, err := topologyAt(ctx, net, t)
		if err != nil {
			return out, err
		}
		ff, err := routing.FlatFlood(topo, 0)
		if err != nil {
			return out, err
		}
		cf, err := routing.ClusterFlood(topo, heads, 0)
		if err != nil {
			return out, err
		}
		out[0] = append(out[0], float64(ff.Transmissions))
		out[1] = append(out[1], float64(cf.Transmissions))
		if ff.Reached > 0 {
			out[2] = append(out[2], float64(cf.Reached)/float64(ff.Reached))
		}
	}
	return out, nil
}
