package experiment

import (
	"context"
	"fmt"

	"mobic/internal/analysis"
	"mobic/internal/cluster"
	"mobic/internal/scenario"
)

// Claims turns the paper's qualitative claims into executable checks: it
// re-runs the evaluation sweeps and asserts every shape EXPERIMENTS.md
// records. The Result carries one PASS/FAIL note per claim; the experiment
// fails (returns an error) only on simulation errors, not on failed claims,
// so a regression shows up loudly in the output without hiding the data.
//
// The six sweeps report one progress count: Progress sees the replications
// done and in total across all of them, never a count that restarts.
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

	txs, speeds := scenario.TxSweep(), scenario.SpeedSweep()
	// Four Tx sweeps and two speed sweeps, each over two variants.
	stage := progressStages(r, 2*(4*len(txs)+2*len(speeds)))

	// One dense sweep drives the Figure 3/4 claims.
	dense, err := sweep(ctx, stage(2*len(txs)), txs, scenario.Base, paperVariants(), projectCH)
	if err != nil {
		return nil, err
	}
	lcc, mobic := dense[0], dense[1]

	peak, _ := analysis.PeakIndex(lcc.Y)
	check("C1", "Fig3: baseline CH-changes curve is unimodal in Tx",
		analysis.IsUnimodal(lcc.Y, 0.1))
	check("C2", fmt.Sprintf("Fig3: peak at small Tx (measured %g m, want 25-75)", txs[peak]),
		txs[peak] >= 25 && txs[peak] <= 75)
	// The paper's headline gain claim is about moderate/high Tx (>= 100 m,
	// the regime it calls realistic); at small Tx our CCI implementation
	// produces larger gains (documented deviation, see EXPERIMENTS.md).
	const highTxFrom = 4 // index of Tx = 100 m in TxSweep
	gain, at, err := analysis.MaxRelGain(lcc.Y[highTxFrom:], mobic.Y[highTxFrom:])
	if err != nil {
		return nil, err
	}
	check("C3", fmt.Sprintf("Fig3: MOBIC max gain %.0f%% at Tx=%g over Tx>=100 m (paper: up to 33%%)",
		100*gain, txs[highTxFrom+at]),
		gain >= 0.10 && gain <= 0.60)
	check("C4", "Fig3: MOBIC at least matches the baseline at Tx >= 100 m",
		analysis.AllBelow(lcc.Y[4:], mobic.Y[4:], 0.10))

	clusters, err := sweep(ctx, stage(2*len(txs)), txs, scenario.Base, paperVariants(), projectNC)
	if err != nil {
		return nil, err
	}
	check("C5", "Fig4: cluster count is non-increasing in Tx (both algorithms)",
		analysis.IsNonIncreasing(clusters[0].Y, 0.05) && analysis.IsNonIncreasing(clusters[1].Y, 0.05))
	similar := true
	for i := range txs {
		if g := analysis.RelGain(clusters[0].Y[i], clusters[1].Y[i]); g < -0.2 || g > 0.2 {
			similar = false
		}
	}
	check("C6", "Fig4: little difference between algorithms (within 20%)", similar)

	// Sparse sweep for the Figure 5 claims.
	sparse, err := sweep(ctx, stage(2*len(txs)), txs, scenario.Sparse, paperVariants(), projectCH)
	if err != nil {
		return nil, err
	}
	sparsePeak, _ := analysis.PeakIndex(sparse[0].Y)
	check("C7", fmt.Sprintf("Fig5: peak shifts right (dense %g m -> sparse %g m)", txs[peak], txs[sparsePeak]),
		txs[sparsePeak] >= txs[peak])
	check("C8", "Fig5: sparser area sees more CH changes at Tx >= 150 m",
		sparse[0].Y[len(txs)-1] > lcc.Y[len(txs)-1])

	// The metric-only crossover claim (A1): mobic-nocci vs lcc.
	noCCI, err := cluster.ByName("mobic-nocci")
	if err != nil {
		return nil, err
	}
	nocciSeries, err := sweep(ctx, stage(2*len(txs)), txs, scenario.Base,
		[]variant{{name: "lcc", alg: cluster.LCC}, {name: "mobic-nocci", alg: noCCI}}, projectCH)
	if err != nil {
		return nil, err
	}
	crossX, crossed := analysis.CrossoverX(txs, nocciSeries[0].Y, nocciSeries[1].Y)
	check("C9", fmt.Sprintf("A1: metric-only MOBIC crosses below LCC at moderate Tx (measured %.0f m, paper ~100 m)", crossX),
		crossed && crossX >= 40 && crossX <= 175)

	// Figure 6 claims.
	for _, p := range []struct {
		id    string
		pause float64
	}{
		{id: "C10", pause: 0},
		{id: "C11", pause: 30},
	} {
		s, err := sweep(ctx, stage(2*len(speeds)), speeds, func(v float64) scenario.Params {
			return scenario.Mobility(v, p.pause)
		}, paperVariants(), projectCH)
		if err != nil {
			return nil, err
		}
		check(p.id, fmt.Sprintf("Fig6 PT=%g: churn grows with speed and MOBIC wins at every speed", p.pause),
			analysis.IsNonDecreasing(s[0].Y, 0.05) && analysis.AllBelow(s[0].Y, s[1].Y, 0.05))
	}

	return res, nil
}

// progressStages splits one progress count over consecutive sweeps that
// run totalCells cells in all. Each call to the returned function hands
// out the Runner for the next sweep, of cells cells: its Progress reports
// (done so far over the earlier sweeps + done in this one, total over all).
func progressStages(r Runner, totalCells int) func(cells int) Runner {
	report := r.Progress
	seeds := r.withDefaults().Seeds
	total, offset := totalCells*seeds, 0
	return func(cells int) Runner {
		stage := r
		if report != nil {
			base := offset
			stage.Progress = func(done, _ int) { report(base+done, total) }
		}
		offset += cells * seeds
		return stage
	}
}
