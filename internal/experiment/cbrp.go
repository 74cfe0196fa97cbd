package experiment

import (
	"context"
	"fmt"

	"mobic/internal/cbrp"
	"mobic/internal/cluster"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// CBRP regenerates the A11 extension: the CBRP-lite routing protocol
// (internal/cbrp) running over LCC vs MOBIC clusters across transmission
// ranges, plus the flat-flooding discovery baseline. It measures the data
// delivery ratio and route breaks (what cluster stability buys the data
// plane) and the control overhead (what the backbone saves on discovery).
func CBRP(ctx context.Context, r Runner) (*Result, error) {
	xs := []float64{150, 200, 250}

	type variantSpec struct {
		name   string
		alg    cluster.Algorithm
		flat   bool
		repair bool
	}
	variants := []variantSpec{
		{name: "lcc", alg: cluster.LCC},
		{name: "mobic", alg: cluster.MOBIC},
		{name: "mobic-flatflood", alg: cluster.MOBIC, flat: true},
		{name: "mobic-repair", alg: cluster.MOBIC, repair: true},
	}
	var cells []Cell
	for _, v := range variants {
		for _, tx := range xs {
			cells = append(cells, Cell{Params: scenario.Base(tx), Algorithm: v.alg})
		}
	}
	reps, err := replicate(ctx, r, 0, len(cells), cellConfig(cells),
		func(ctx context.Context, ci int, cfg simnet.Config) (samples, error) {
			v := variants[ci/len(xs)]
			proto := cbrp.New(cbrp.Config{
				Flows: 10, DataInterval: 4,
				FlatFlooding: v.flat, LocalRepair: v.repair,
			})
			cfg.Apps = []simnet.App{proto}
			net, err := simnet.New(cfg)
			if err != nil {
				return samples{}, err
			}
			if _, err := net.RunContext(ctx); err != nil {
				return samples{}, err
			}
			st := proto.Stats()
			return samples{{100 * st.DeliveryRatio()}, {float64(st.ControlTx())}, {float64(st.RouteBreaks)}}, nil
		}, nil)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "cbrp",
		Title:  "A11: CBRP-lite routing over LCC vs MOBIC clusters",
		XLabel: "transmission range (m)",
		YLabel: "data delivery ratio (%)",
		X:      xs,
	}
	for vi, v := range variants {
		pdr := Series{Name: v.name + "-pdr(%)", Y: make([]float64, len(xs))}
		for xi, tx := range xs {
			m := meanOf(reps[vi*len(xs)+xi])
			pdr.Y[xi] = m[0]
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%-16s tx=%3.0f: control tx %7.0f, route breaks %5.0f", v.name, tx, m[1], m[2]))
		}
		res.Series = append(res.Series, pdr)
	}
	return res, nil
}
