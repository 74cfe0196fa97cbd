package experiment

import (
	"context"
	"fmt"

	"mobic/internal/analysis"
	"mobic/internal/scenario"
)

// Claims turns the paper's qualitative claims into executable checks: it
// runs the cells of the figures behind them and asserts every shape
// EXPERIMENTS.md records. The Result carries one PASS/FAIL note per claim;
// the experiment fails (returns an error) only on simulation errors, not on
// failed claims, so a regression shows up loudly in the output without
// hiding the data.
//
// The cells are the figures' own grids, run in one pool call: Figure 3's
// (which Figure 4 and A1's LCC curve share), A1's mobic-nocci curve,
// Figure 5's, and Figure 6's at PT 0 and PT 30. Progress counts them all.
func Claims(ctx context.Context, r Runner) (*Result, error) {
	res := &Result{
		ID:    "claims",
		Title: "Executable checklist of the paper's claims",
	}
	check := func(id, text string, pass bool) {
		status := "PASS"
		if !pass {
			status = "FAIL"
		}
		res.Notes = append(res.Notes, fmt.Sprintf("[%s] %-8s %s", status, id, text))
	}

	noCCI, err := noCCICurve()
	if err != nil {
		return nil, err
	}
	// One row per curve: Figure 3's lcc and mobic, mobic-nocci, Figure 5's
	// lcc and mobic, then Figure 6's lcc and mobic at PT 0 and at PT 30.
	rows, err := runGrids(ctx, r, fig3Grid(), txGrid(noCCI), fig5Grid(), fig6Grid(0), fig6Grid(30))
	if err != nil {
		return nil, err
	}
	ys := func(row int, project func(CellStats) (y, ci float64)) []float64 {
		return seriesOf("", rows[row], project).Y
	}
	txs := scenario.TxSweep()
	lcc, mobic := ys(0, projectCH), ys(1, projectCH)

	peak, _ := analysis.PeakIndex(lcc)
	check("C1", "Fig3: baseline CH-changes curve is unimodal in Tx",
		analysis.IsUnimodal(lcc, 0.1))
	check("C2", fmt.Sprintf("Fig3: peak at small Tx (measured %g m, want 25-75)", txs[peak]),
		txs[peak] >= 25 && txs[peak] <= 75)
	// The paper's headline gain claim is about moderate/high Tx (>= 100 m,
	// the regime it calls realistic); at small Tx our CCI implementation
	// produces larger gains (documented deviation, see EXPERIMENTS.md).
	const highTxFrom = 4 // index of Tx = 100 m in TxSweep
	gain, at, err := analysis.MaxRelGain(lcc[highTxFrom:], mobic[highTxFrom:])
	if err != nil {
		return nil, err
	}
	check("C3", fmt.Sprintf("Fig3: MOBIC max gain %.0f%% at Tx=%g over Tx>=100 m (paper: up to 33%%)",
		100*gain, txs[highTxFrom+at]),
		gain >= 0.10 && gain <= 0.60)
	check("C4", "Fig3: MOBIC at least matches the baseline at Tx >= 100 m",
		analysis.AllBelow(lcc[4:], mobic[4:], 0.10))

	lccNC, mobicNC := ys(0, projectNC), ys(1, projectNC)
	check("C5", "Fig4: cluster count is non-increasing in Tx (both algorithms)",
		analysis.IsNonIncreasing(lccNC, 0.05) && analysis.IsNonIncreasing(mobicNC, 0.05))
	similar := true
	for i := range txs {
		if g := analysis.RelGain(lccNC[i], mobicNC[i]); g < -0.2 || g > 0.2 {
			similar = false
		}
	}
	check("C6", "Fig4: little difference between algorithms (within 20%)", similar)

	sparse := ys(3, projectCH)
	sparsePeak, _ := analysis.PeakIndex(sparse)
	check("C7", fmt.Sprintf("Fig5: peak shifts right (dense %g m -> sparse %g m)", txs[peak], txs[sparsePeak]),
		txs[sparsePeak] >= txs[peak])
	check("C8", "Fig5: sparser area sees more CH changes at Tx >= 150 m",
		sparse[len(txs)-1] > lcc[len(txs)-1])

	// The metric-only crossover claim (A1): mobic-nocci vs lcc.
	crossX, crossed := analysis.CrossoverX(txs, lcc, ys(2, projectCH))
	check("C9", fmt.Sprintf("A1: metric-only MOBIC crosses below LCC at moderate Tx (measured %.0f m, paper ~100 m)", crossX),
		crossed && crossX >= 40 && crossX <= 175)

	// Figure 6 claims, C10 at PT 0 and C11 at PT 30.
	for i, pause := range []float64{0, 30} {
		lcc6, mobic6 := ys(5+2*i, projectCH), ys(6+2*i, projectCH)
		check(fmt.Sprintf("C%d", 10+i), fmt.Sprintf("Fig6 PT=%g: churn grows with speed and MOBIC wins at every speed", pause),
			analysis.IsNonDecreasing(lcc6, 0.05) && analysis.AllBelow(lcc6, mobic6, 0.05))
	}

	return res, nil
}
