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
	// Each replication's config carries its own protocol instance, which
	// the replication reads back after the run.
	withCBRP := func(flat, repair bool) func(*simnet.Config) {
		return func(cfg *simnet.Config) {
			cfg.Apps = []simnet.App{cbrp.New(cbrp.Config{
				Flows: 10, DataInterval: 4,
				FlatFlooding: flat, LocalRepair: repair,
			})}
		}
	}
	g := grid{xs: []float64{150, 200, 250}, curves: []curve{
		algCurve("lcc", cluster.LCC, scenario.Base, withCBRP(false, false)),
		algCurve("mobic", cluster.MOBIC, scenario.Base, withCBRP(false, false)),
		algCurve("mobic-flatflood", cluster.MOBIC, scenario.Base, withCBRP(true, false)),
		algCurve("mobic-repair", cluster.MOBIC, scenario.Base, withCBRP(false, true)),
	}}
	cells := gridCells(g)
	reps, err := replicate(ctx, r, 0, len(cells), cellConfig(cells),
		func(ctx context.Context, _ int, cfg simnet.Config) (samples, error) {
			proto := cfg.Apps[0].(*cbrp.Protocol)
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
		X:      g.xs,
	}
	for i, row := range gridRows(reps, g) {
		name := g.curves[i].name
		pdr := Series{Name: name + "-pdr(%)", Y: make([]float64, len(row))}
		for xi, cellReps := range row {
			m := meanOf(cellReps)
			pdr.Y[xi] = m[0]
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%-16s tx=%3.0f: control tx %7.0f, route breaks %5.0f", name, g.xs[xi], m[1], m[2]))
		}
		res.Series = append(res.Series, pdr)
	}
	return res, nil
}
