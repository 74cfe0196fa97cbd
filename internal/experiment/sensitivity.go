package experiment

import (
	"context"
	"fmt"

	"mobic/internal/cluster"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// CCISweep asks whether Table 1's CCI = 4 s is a good choice: MOBIC's
// clusterhead changes at Tx 150 m and Tx 250 m across contention intervals
// from 0 (immediate resolution) to 16 s.
func CCISweep(ctx context.Context, r Runner) (*Result, error) {
	ccis := []float64{0, 1, 2, 4, 8, 16}
	mobicAt := func(tx float64) curve {
		return curve{name: fmt.Sprintf("mobic-tx%g", tx), at: func(cci float64) Cell {
			p := scenario.Base(tx)
			alg := cluster.MOBIC
			if cci == 0 {
				// Params.Config only overrides a positive CCI; build the
				// zero-CCI variant explicitly.
				alg.Policy.CCI = 0
				p.CCI = 0
			} else {
				p.CCI = cci
			}
			return Cell{Params: p, Algorithm: alg}
		}}
	}
	return sweep(ctx, r, grid{xs: ccis, curves: []curve{mobicAt(150), mobicAt(250)}}, projectCH, Result{
		ID:     "cci-sweep",
		Title:  "CCI sensitivity: MOBIC stability vs contention interval",
		XLabel: "cluster contention interval (s)",
		YLabel: "clusterhead changes / 900 s",
		Notes: []string{
			"Table 1 fixes CCI = 4 s; longer deferral forgives more transient",
			"head contacts but delays legitimate merges.",
		},
	})
}

// BISweep trades beacon rate against stability: the broadcast interval
// sweep at Tx 150 m for LCC and MOBIC, with TP scaled to 1.5x BI as in
// Table 1's ratio. Faster hellos see topology sooner (fewer stale
// decisions) but cost linearly more airtime.
func BISweep(ctx context.Context, r Runner) (*Result, error) {
	bis := []float64{0.5, 1, 2, 4, 8}
	paramsFor := func(bi float64) scenario.Params {
		p := scenario.Base(150)
		p.BI = bi
		p.TP = 1.5 * bi
		return p
	}
	g := grid{xs: bis, curves: []curve{
		algCurve(cluster.LCC.Name, cluster.LCC, paramsFor, nil),
		algCurve(cluster.MOBIC.Name, cluster.MOBIC, paramsFor, nil),
	}}
	rows, err := runGrids(ctx, r, g)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "bi-sweep",
		Title:  "Broadcast-interval sensitivity (Tx 150 m, TP = 1.5 BI)",
		XLabel: "broadcast interval (s)",
		YLabel: "clusterhead changes / 900 s",
		X:      bis,
	}
	for i, row := range rows {
		name := g.curves[i].name
		res.Series = append(res.Series, seriesOf(name, row, projectCH))
		for xi, cell := range row {
			res.Notes = append(res.Notes, fmt.Sprintf("%-6s BI=%.1f s: %.0f beacons sent",
				name, bis[xi], cell.Broadcasts))
		}
	}
	return res, nil
}

// WCALite adds a combined-weight algorithm in the spirit of the Weighted
// Clustering Algorithm (a successor to both this paper and DCA): the
// election weight mixes the mobility metric with the node's deviation from
// an ideal degree, so clusterheads are slow AND well-connected-but-not-
// overloaded. Compared against MOBIC and LCC.
func WCALite(ctx context.Context, r Runner) (*Result, error) {
	wca := cluster.MOBIC
	wca.Name = "wca-lite"
	wcaMutate := func(cfg *simnet.Config) { cfg.CombinedDegreeWeight = 0.5 }
	g := txGrid(baseCurve(cluster.LCC), baseCurve(cluster.MOBIC), algCurve(wca.Name, wca, scenario.Base, wcaMutate))
	return sweep(ctx, r, g, projectCH, Result{
		ID:     "wca",
		Title:  "WCA-lite: mobility + degree-deviation combined weight",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		Notes: []string{
			"weight = M + 0.5*|degree - ideal|, ideal = mean degree; the",
			"degree term penalizes both isolated and overloaded candidates.",
		},
	})
}
