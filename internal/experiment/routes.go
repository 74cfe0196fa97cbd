package experiment

import (
	"context"
	"fmt"
	"math/rand/v2"

	"mobic/internal/cluster"
	"mobic/internal/graph"
	"mobic/internal/hier"
	"mobic/internal/routing"
	"mobic/internal/simnet"
)

// tooShort is the error of an experiment whose runs end before its first
// sample, which would otherwise yield all-zero series.
func tooShort(id string, minDuration, got float64) error {
	return fmt.Errorf("experiment: %s needs a duration of at least %g s to take a sample, got %g s",
		id, minDuration, got)
}

// topologyAt advances net to t and returns its topology and each node's
// clusterhead. It is the probe epoch of the routing, flooding and
// hierarchy experiments, so it is where they honour ctx.
func topologyAt(ctx context.Context, net *simnet.Network, t float64) (*graph.Adjacency, []int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	net.RunUntil(t)
	snap := net.Snapshot()
	heads := make([]int32, len(snap))
	for i, s := range snap {
		heads[i] = s.Head
	}
	return net.Topology(), heads, nil
}

// Routes regenerates the A10 extension experiment: what the paper's closing
// argument predicts — stabler clusters make a better routing substrate. For
// LCC and MOBIC clusters it measures, at each transmission range:
//
//   - the mean lifetime of backbone-constrained routes between random
//     node pairs (probed every 5 s until the route breaks), and
//   - the mean route-request discovery cost over the cluster backbone.
func Routes(ctx context.Context, r Runner) (*Result, error) {
	g := grid{xs: []float64{100, 150, 200, 250}, curves: []curve{baseCurve(cluster.LCC), baseCurve(cluster.MOBIC)}}
	cells := gridCells(g)
	reps, err := replicate(ctx, r, 0, len(cells), cellConfig(cells), routeSamples, nil)
	if err != nil {
		return nil, err
	}

	life := make([]Series, len(g.curves))
	clusterLife := make([]Series, len(g.curves))
	cost := make([]Series, len(g.curves))
	for i, row := range gridRows(reps, g) {
		name := g.curves[i].name
		life[i] = Series{Name: name + "-route-life(s)", Y: make([]float64, len(row))}
		clusterLife[i] = Series{Name: name + "-cluster-route-life(s)", Y: make([]float64, len(row))}
		cost[i] = Series{Name: name + "-rreq-cost", Y: make([]float64, len(row))}
		for xi, cellReps := range row {
			m := meanOf(cellReps)
			life[i].Y[xi], clusterLife[i].Y[xi], cost[i].Y[xi] = m[0], m[1], m[2]
		}
	}
	return &Result{
		ID:     "routes",
		Title:  "A10: route lifetime and discovery cost over the cluster backbone",
		XLabel: "transmission range (m)",
		YLabel: "mean route lifetime (s)",
		X:      g.xs,
		Series: []Series{
			life[0], life[1],
			clusterLife[0], clusterLife[1],
			cost[0], cost[1],
		},
		Notes: []string{
			"route-life: node-level source routes (die when any link breaks);",
			"cluster-route-life: routes addressed by cluster sequence (die only",
			"when a clusterhead changes or clusters lose adjacency) — the level",
			"where the paper's stability translates into routing performance.",
			"rreq-cost: backbone route-request flood transmissions.",
		},
	}, nil
}

// routeMinDuration is the shortest run routeSamples can sample: its first
// route is discovered at 60 s and probed for up to 60 s.
const routeMinDuration = 120.0

// routeSamples runs one scenario, discovering fresh routes at fixed epochs
// between seeded random pairs and measuring node-route lifetimes,
// cluster-route lifetimes, and discovery costs, in that order.
func routeSamples(ctx context.Context, _ int, cfg simnet.Config) (samples, error) {
	var out samples
	if cfg.Duration < routeMinDuration {
		return out, tooShort("routes", routeMinDuration, cfg.Duration)
	}
	net, err := simnet.New(cfg)
	if err != nil {
		return out, err
	}
	pairRng := rand.New(rand.NewPCG(cfg.Seed, 0x707e5))
	const probe = 5.0
	for start := 60.0; start+60 <= cfg.Duration; start += 120 {
		src := int32(pairRng.IntN(cfg.N))
		dst := int32(pairRng.IntN(cfg.N))
		if src == dst {
			dst = (dst + 1) % int32(cfg.N)
		}
		g, heads, err := topologyAt(ctx, net, start)
		if err != nil {
			return out, err
		}
		c, err := routing.DiscoveryCost(g, heads, src, true)
		if err != nil {
			return out, err
		}
		out[2] = append(out[2], float64(c))

		// Discover both route kinds at the same instant.
		npath, nerr := routing.BackbonePath(g, heads, src, dst)
		cg, err := hier.Build(g, heads)
		if err != nil {
			return out, err
		}
		cpath, cerr := cg.Path(clusterOf(heads, src), clusterOf(heads, dst))
		if nerr != nil && cerr != nil {
			continue // disconnected pair: nothing to measure
		}

		// One shared probe loop: the simulation clock only moves forward,
		// so both lifetimes must be evaluated on the same snapshots.
		nodeLife, clusterLife := 0.0, 0.0
		nodeAlive, clusterAlive := nerr == nil, cerr == nil
		for t := start + probe; t <= start+60 && (nodeAlive || clusterAlive); t += probe {
			g, heads, err := topologyAt(ctx, net, t)
			if err != nil {
				return out, err
			}
			if nodeAlive {
				if npath.Valid(g) {
					nodeLife = t - start
				} else {
					nodeAlive = false
				}
			}
			if clusterAlive {
				cg, err := hier.Build(g, heads)
				if err != nil {
					return out, err
				}
				if cg.PathValid(cpath) {
					clusterLife = t - start
				} else {
					clusterAlive = false
				}
			}
		}
		if nerr == nil {
			out[0] = append(out[0], nodeLife)
		}
		if cerr == nil {
			out[1] = append(out[1], clusterLife)
		}
	}
	return out, nil
}

// clusterOf maps a node to its cluster identifier (its own id when
// unaffiliated, matching hier's singleton convention).
func clusterOf(heads []int32, node int32) int32 {
	if heads[node] == cluster.NoHead {
		return node
	}
	return heads[node]
}
