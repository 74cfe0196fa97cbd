package experiment

import (
	"context"

	"mobic/internal/cluster"
	"mobic/internal/hier"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// Hierarchy quantifies the paper's scalability motivation: across the Tx
// sweep it samples the cluster graph over MOBIC's clusters and reports
//
//   - the routing-state reduction factor (flat proactive entries divided
//     by hierarchical entries), and
//   - the cluster-graph diameter (route length in cluster hops), and
//   - cluster-graph edge churn per sample interval (structural stability).
func Hierarchy(ctx context.Context, r Runner) (*Result, error) {
	xs := scenario.TxSweep()
	cells := gridCells(txGrid(baseCurve(cluster.MOBIC)))
	reps, err := replicate(ctx, r, 0, len(cells), cellConfig(cells), hierarchySamples, nil)
	if err != nil {
		return nil, err
	}
	reduction := Series{Name: "state-reduction-x", Y: make([]float64, len(xs))}
	diameter := Series{Name: "cluster-diameter", Y: make([]float64, len(xs))}
	churn := Series{Name: "edge-churn/interval", Y: make([]float64, len(xs))}
	for xi := range xs {
		m := meanOf(reps[xi])
		reduction.Y[xi], diameter.Y[xi], churn.Y[xi] = m[0], m[1], m[2]
	}
	return &Result{
		ID:     "hierarchy",
		Title:  "Hierarchical scalability: routing-state reduction over MOBIC clusters",
		XLabel: "transmission range (m)",
		YLabel: "flat/hierarchical routing-state ratio",
		X:      xs,
		Series: []Series{reduction, diameter, churn},
		Notes: []string{
			"state-reduction-x: proactive flat entries / hierarchical entries;",
			"cluster-diameter: route length in cluster hops; edge-churn:",
			"cluster-graph edges changed per 30 s sample.",
		},
	}, nil
}

// hierarchySamples runs one scenario, sampling the cluster graph every 30 s
// from t = 60 s. It returns the routing-state reductions, the cluster-graph
// diameters and the edge churn between successive samples.
func hierarchySamples(ctx context.Context, _ int, cfg simnet.Config) (samples, error) {
	var out samples
	net, err := simnet.New(cfg)
	if err != nil {
		return out, err
	}
	var prev *hier.ClusterGraph
	for t := 60.0; t <= cfg.Duration; t += 30 {
		topo, heads, err := topologyAt(ctx, net, t)
		if err != nil {
			return out, err
		}
		cg, err := hier.Build(topo, heads)
		if err != nil {
			return out, err
		}
		flat, hierState := cg.RoutingState()
		if hierState > 0 {
			out[0] = append(out[0], float64(flat)/float64(hierState))
		}
		out[1] = append(out[1], float64(cg.Diameter()))
		if prev != nil {
			out[2] = append(out[2], float64(hier.EdgeChurn(prev, cg)))
		}
		prev = cg
	}
	return out, nil
}
