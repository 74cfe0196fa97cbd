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
	var cells []Cell
	for _, tx := range []float64{150, 250} {
		for _, cci := range ccis {
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
			cells = append(cells, Cell{Params: p, Algorithm: alg})
		}
	}
	cs, err := r.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "cci-sweep",
		Title:  "CCI sensitivity: MOBIC stability vs contention interval",
		XLabel: "cluster contention interval (s)",
		YLabel: "clusterhead changes / 900 s",
		X:      ccis,
		Series: []Series{seriesOf("mobic-tx150", cs[:len(ccis)], projectCH), seriesOf("mobic-tx250", cs[len(ccis):], projectCH)},
		Notes: []string{
			"Table 1 fixes CCI = 4 s; longer deferral forgives more transient",
			"head contacts but delays legitimate merges.",
		},
	}, nil
}

// BISweep trades beacon rate against stability: the broadcast interval
// sweep at Tx 150 m for LCC and MOBIC, with TP scaled to 1.5x BI as in
// Table 1's ratio. Faster hellos see topology sooner (fewer stale
// decisions) but cost linearly more airtime.
func BISweep(ctx context.Context, r Runner) (*Result, error) {
	bis := []float64{0.5, 1, 2, 4, 8}
	algs := []cluster.Algorithm{cluster.LCC, cluster.MOBIC}
	var cells []Cell
	for _, alg := range algs {
		for _, bi := range bis {
			p := scenario.Base(150)
			p.BI = bi
			p.TP = 1.5 * bi
			cells = append(cells, Cell{Params: p, Algorithm: alg})
		}
	}
	cs, err := r.RunCells(ctx, cells)
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
	for ai, alg := range algs {
		row := cs[ai*len(bis) : (ai+1)*len(bis)]
		res.Series = append(res.Series, seriesOf(alg.Name, row, projectCH))
		for i, cell := range row {
			res.Notes = append(res.Notes, fmt.Sprintf("%-6s BI=%.1f s: %.0f beacons sent",
				alg.Name, bis[i], cell.Broadcasts))
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
	variants := []variant{
		{name: "lcc", alg: cluster.LCC},
		{name: "mobic", alg: cluster.MOBIC},
		{name: "wca-lite", alg: wca, mutate: wcaMutate},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "wca",
		Title:  "WCA-lite: mobility + degree-deviation combined weight",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
		Notes: []string{
			"weight = M + 0.5*|degree - ideal|, ideal = mean degree; the",
			"degree term penalizes both isolated and overloaded candidates.",
		},
	}, nil
}
