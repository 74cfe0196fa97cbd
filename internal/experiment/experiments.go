package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"mobic/internal/channel"
	"mobic/internal/cluster"
	"mobic/internal/radio"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// curve is one named line of a figure: the Cell it runs at each x.
type curve struct {
	name string
	at   func(x float64) Cell
}

// algCurve is the curve that runs alg on paramsFor(x), with an optional
// config mutation, at each x.
func algCurve(name string, alg cluster.Algorithm, paramsFor func(float64) scenario.Params, mutate func(*simnet.Config)) curve {
	return curve{name: name, at: func(x float64) Cell {
		return Cell{Params: paramsFor(x), Algorithm: alg, Mutate: mutate}
	}}
}

// baseCurve is alg's curve on the 670x670 m scenario at each Tx, named
// after alg.
func baseCurve(alg cluster.Algorithm) curve { return algCurve(alg.Name, alg, scenario.Base, nil) }

// grid is a figure's cells: every curve at every x.
type grid struct {
	xs     []float64
	curves []curve
}

// txGrid is the grid of curves over the Tx sweep.
func txGrid(curves ...curve) grid { return grid{xs: scenario.TxSweep(), curves: curves} }

// paperGrid is the grid of Figures 3-6 on paramsFor(x): the Lowest-ID (LCC)
// baseline and MOBIC.
func paperGrid(xs []float64, paramsFor func(float64) scenario.Params) grid {
	return grid{xs: xs, curves: []curve{
		algCurve("lowest-id(lcc)", cluster.LCC, paramsFor, nil),
		algCurve("mobic", cluster.MOBIC, paramsFor, nil),
	}}
}

// fig3Grid, fig5Grid and fig6Grid are the grids of Figure 3 (670x670 m),
// Figure 5 (1000x1000 m) and Figure 6 (speed sweep at the given pause).
func fig3Grid() grid { return paperGrid(scenario.TxSweep(), scenario.Base) }
func fig5Grid() grid { return paperGrid(scenario.TxSweep(), scenario.Sparse) }

func fig6Grid(pause float64) grid {
	return paperGrid(scenario.SpeedSweep(), func(speed float64) scenario.Params {
		return scenario.Mobility(speed, pause)
	})
}

// noCCICurve is A1's metric-only MOBIC (CCI disabled) on the 670x670 m
// scenario.
func noCCICurve() (curve, error) {
	noCCI, err := cluster.ByName("mobic-nocci")
	if err != nil {
		return curve{}, err
	}
	return baseCurve(noCCI), nil
}

// gridCells lays grids out one after another, each curve-major: a curve
// runs its grid's xs in consecutive cells.
func gridCells(grids ...grid) []Cell {
	var cells []Cell
	for _, g := range grids {
		for _, c := range g.curves {
			for _, x := range g.xs {
				cells = append(cells, c.at(x))
			}
		}
	}
	return cells
}

// gridRows splits per-cell values in gridCells order into one row per
// curve, grid after grid.
func gridRows[T any](vals []T, grids ...grid) [][]T {
	var rows [][]T
	for _, g := range grids {
		for range g.curves {
			rows = append(rows, vals[:len(g.xs)])
			vals = vals[len(g.xs):]
		}
	}
	return rows
}

// runGrids runs every grid's cells in one RunCells call and returns one
// row of stats per curve, grid after grid.
func runGrids(ctx context.Context, r Runner, grids ...grid) ([][]CellStats, error) {
	cs, err := r.RunCells(ctx, gridCells(grids...))
	if err != nil {
		return nil, err
	}
	return gridRows(cs, grids...), nil
}

// sweep runs one grid and returns res with the grid's xs as its X axis and
// one series per curve with the projected metric.
func sweep(ctx context.Context, r Runner, g grid, project func(CellStats) (y, ci float64), res Result) (*Result, error) {
	rows, err := runGrids(ctx, r, g)
	if err != nil {
		return nil, err
	}
	res.X = g.xs
	for i, row := range rows {
		res.Series = append(res.Series, seriesOf(g.curves[i].name, row, project))
	}
	return &res, nil
}

// seriesOf projects consecutive cells, one per x value, onto one series.
func seriesOf(name string, cells []CellStats, project func(CellStats) (y, ci float64)) Series {
	s := Series{Name: name, Y: make([]float64, len(cells)), CI: make([]float64, len(cells))}
	for i, c := range cells {
		s.Y[i], s.CI[i] = project(c)
	}
	return s
}

func projectCH(cs CellStats) (float64, float64)  { return cs.CHChanges, cs.CHChangesCI }
func projectNC(cs CellStats) (float64, float64)  { return cs.AvgClusters, 0 }
func projectRes(cs CellStats) (float64, float64) { return cs.MeanResidence, 0 }

func projectFairness(cs CellStats) (float64, float64) {
	var sum float64
	for _, m := range cs.Raw {
		sum += m.HeadTimeFairness
	}
	if len(cs.Raw) == 0 {
		return 0, 0
	}
	return sum / float64(len(cs.Raw)), 0
}

// Fig3 regenerates Figure 3: clusterhead changes vs transmission range on
// the 670x670 m scenario (MaxSpeed 20, PT 0).
func Fig3(ctx context.Context, r Runner) (*Result, error) {
	return sweep(ctx, r, fig3Grid(), projectCH, Result{
		ID:     "fig3",
		Title:  "Figure 3: clusterhead changes vs Tx (670x670 m, MaxSpeed 20, PT 0)",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
	})
}

// Fig4 regenerates Figure 4: average number of clusters vs transmission
// range on the same scenario as Figure 3.
func Fig4(ctx context.Context, r Runner) (*Result, error) {
	return sweep(ctx, r, fig3Grid(), projectNC, Result{
		ID:     "fig4",
		Title:  "Figure 4: number of clusters vs Tx (670x670 m, MaxSpeed 20, PT 0)",
		XLabel: "transmission range (m)",
		YLabel: "average number of clusters",
	})
}

// Fig5 regenerates Figure 5: clusterhead changes vs transmission range on
// the sparser 1000x1000 m scenario.
func Fig5(ctx context.Context, r Runner) (*Result, error) {
	return sweep(ctx, r, fig5Grid(), projectCH, Result{
		ID:     "fig5",
		Title:  "Figure 5: clusterhead changes vs Tx (1000x1000 m, MaxSpeed 20, PT 0)",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
	})
}

// fig6 regenerates one panel of Figure 6: clusterhead changes vs MaxSpeed
// at Tx = 250 m with the given pause time.
func fig6(ctx context.Context, r Runner, id string, pause float64) (*Result, error) {
	return sweep(ctx, r, fig6Grid(pause), projectCH, Result{
		ID:     id,
		Title:  fmt.Sprintf("Figure 6 (PT=%g s): clusterhead changes vs MaxSpeed (Tx 250 m)", pause),
		XLabel: "max speed (m/s)",
		YLabel: "clusterhead changes / 900 s",
	})
}

// Fig6a regenerates Figure 6(a): PT = 0 (constant mobility).
func Fig6a(ctx context.Context, r Runner) (*Result, error) { return fig6(ctx, r, "fig6a", 0) }

// Fig6b regenerates Figure 6(b): PT = 30 s.
func Fig6b(ctx context.Context, r Runner) (*Result, error) { return fig6(ctx, r, "fig6b", 30) }

// Table1 echoes the paper's simulation-parameter table (no simulation).
func Table1(ctx context.Context, _ Runner) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "table1",
		Title: "Table 1: simulation parameters",
	}
	for _, row := range scenario.Table1() {
		res.Notes = append(res.Notes, fmt.Sprintf("%-10s %-28s %s", row.Symbol, row.Meaning, row.Value))
	}
	return res, nil
}

// AblateCCI isolates the Cluster Contention Interval's contribution (A1):
// MOBIC with and without CCI, the LCC baseline, and LCC augmented with CCI.
func AblateCCI(ctx context.Context, r Runner) (*Result, error) {
	noCCI, err := noCCICurve()
	if err != nil {
		return nil, err
	}
	lccCCI := cluster.LCC
	lccCCI.Name = "lcc+cci"
	lccCCI.Policy.CCI = cluster.DefaultCCI
	g := txGrid(baseCurve(cluster.LCC), baseCurve(cluster.MOBIC), noCCI, baseCurve(lccCCI))
	return sweep(ctx, r, g, projectCH, Result{
		ID:     "ablate-cci",
		Title:  "A1: CCI ablation — contention deferral vs mobility weight",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		Notes: []string{
			"mobic-nocci isolates the mobility metric: it reproduces the paper's",
			"crossover (worse than LCC at small Tx, better at large Tx).",
			"CCI alone (lcc+cci) suppresses transient head-head contacts.",
		},
	})
}

// AblateLCC compares the original aggressive Lowest-ID against LCC (A2),
// reproducing the motivation from Chiang et al. [3].
func AblateLCC(ctx context.Context, r Runner) (*Result, error) {
	return sweep(ctx, r, txGrid(baseCurve(cluster.LowestID), baseCurve(cluster.LCC)), projectCH, Result{
		ID:     "ablate-lcc",
		Title:  "A2: LCC ablation — aggressive vs least-clusterhead-change maintenance",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
	})
}

// AblateHistory tests the paper's Section 5 history extension (A3): EWMA
// smoothing of the aggregate mobility metric.
func AblateHistory(ctx context.Context, r Runner) (*Result, error) {
	mk := func(name string, alpha float64) curve {
		a := cluster.MOBIC
		a.Name = name
		a.EWMAAlpha = alpha
		return baseCurve(a)
	}
	pair := cluster.MOBIC
	pair.Name = "mobic-pair-0.5"
	pair.PairwiseEWMAAlpha = 0.5
	g := txGrid(baseCurve(cluster.MOBIC), mk("mobic-ewma-0.5", 0.5), mk("mobic-ewma-0.25", 0.25), baseCurve(pair))
	return sweep(ctx, r, g, projectCH, Result{
		ID:     "ablate-history",
		Title:  "A3: history ablation — EWMA smoothing of M (paper Section 5)",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
	})
}

// MaxDegree adds the max-connectivity baseline from Section 2.1 (A6).
func MaxDegree(ctx context.Context, r Runner) (*Result, error) {
	g := txGrid(baseCurve(cluster.LCC), baseCurve(cluster.MOBIC), baseCurve(cluster.MaxConnectivity))
	return sweep(ctx, r, g, projectCH, Result{
		ID:     "maxdeg",
		Title:  "A6: max-connectivity baseline stability",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
	})
}

// Propagation measures the sensitivity of MOBIC to the channel model (A7).
func Propagation(ctx context.Context, r Runner) (*Result, error) {
	shadow := func(cfg *simnet.Config) {
		cfg.Propagation = radio.NewShadowing(2.7, 4,
			rand.New(rand.NewPCG(cfg.Seed, 0x5aad)))
	}
	free := func(cfg *simnet.Config) { cfg.Propagation = radio.NewFreeSpace() }
	g := txGrid(
		algCurve("mobic-tworay", cluster.MOBIC, scenario.Base, nil),
		algCurve("mobic-freespace", cluster.MOBIC, scenario.Base, free),
		algCurve("mobic-shadowing", cluster.MOBIC, scenario.Base, shadow),
		algCurve("lcc-tworay", cluster.LCC, scenario.Base, nil),
		algCurve("lcc-shadowing", cluster.LCC, scenario.Base, shadow),
	)
	return sweep(ctx, r, g, projectCH, Result{
		ID:     "propagation",
		Title:  "A7: propagation-model sensitivity",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		Notes: []string{
			"Shadowing (sigma 4 dB) adds reception noise to the RxPr ratios;",
			"MOBIC's advantage should persist if the metric is robust.",
		},
	})
}

// Loss measures robustness of the metric to MAC-level packet loss (A8).
func Loss(ctx context.Context, r Runner) (*Result, error) {
	rates := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	mkLoss := func(rate float64) func(*simnet.Config) {
		return func(cfg *simnet.Config) {
			if rate == 0 {
				return
			}
			lm, err := channel.NewUniformLoss(rate, rand.New(rand.NewPCG(cfg.Seed, 0x105)))
			if err == nil {
				cfg.Loss = lm
			}
		}
	}
	// The loss rate is the X axis: it picks each cell's mutation.
	lossy := func(alg cluster.Algorithm) curve {
		return curve{name: alg.Name, at: func(rate float64) Cell {
			return Cell{Params: scenario.Base(150), Algorithm: alg, Mutate: mkLoss(rate)}
		}}
	}
	g := grid{xs: rates, curves: []curve{lossy(cluster.LCC), lossy(cluster.MOBIC)}}
	return sweep(ctx, r, g, projectCH, Result{
		ID:     "loss",
		Title:  "A8: packet-loss robustness (Tx 150 m)",
		XLabel: "uniform hello loss rate",
		YLabel: "clusterhead changes / 900 s",
	})
}

// AdaptiveBIExp evaluates the Section 5 adaptive-hello-interval extension
// (A4): stability and beacon cost of fixed vs adaptive intervals across
// mobility levels.
func AdaptiveBIExp(ctx context.Context, r Runner) (*Result, error) {
	adaptive := func(cfg *simnet.Config) {
		cfg.Adaptive = &simnet.AdaptiveBI{Min: 0.5, Max: 4, MRef: 4}
		cfg.BroadcastInterval = 0.5
		cfg.TimeoutPeriod = 6
	}
	fixedSlow := func(cfg *simnet.Config) {
		cfg.BroadcastInterval = 4
		cfg.TimeoutPeriod = 6
	}
	paramsFor := func(speed float64) scenario.Params { return scenario.Mobility(speed, 0) }
	g := grid{xs: scenario.SpeedSweep(), curves: []curve{
		algCurve("mobic-bi2", cluster.MOBIC, paramsFor, nil),
		algCurve("mobic-bi4", cluster.MOBIC, paramsFor, fixedSlow),
		algCurve("mobic-adaptive", cluster.MOBIC, paramsFor, adaptive),
	}}
	rows, err := runGrids(ctx, r, g)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "adaptive-bi",
		Title:  "A4: mobility-adaptive broadcast interval (paper Section 5)",
		XLabel: "max speed (m/s)",
		YLabel: "clusterhead changes / 900 s",
		X:      g.xs,
	}
	for i, row := range rows {
		name := g.curves[i].name
		res.Series = append(res.Series, seriesOf(name, row, projectCH))
		for xi, cell := range row {
			res.Notes = append(res.Notes, fmt.Sprintf("%s at %g m/s: %.0f beacons",
				name, g.xs[xi], cell.Broadcasts))
		}
	}
	return res, nil
}

// Policies compares the clustering-policy extensions on the Figure 3
// workload (A14): plain MOBIC, MOBIC with the hysteresis-banded adaptive
// broadcast period, adaptive Lowest-ID (tenure-bounded ID reassignment),
// and energy-weighted MOBIC with battery-threshold head rotation. Stability
// is the headline metric; the notes carry the head-duty fairness each
// policy buys, since rotation trades churn for fairness by design.
func Policies(ctx context.Context, r Runner) (*Result, error) {
	adaptiveBI := func(tx float64) scenario.Params {
		p := scenario.Base(tx)
		p.BIMin, p.BIMax = 0.5, 4
		p.TP = 6 // outlast the longest adaptive interval
		return p
	}
	energyOn := func(tx float64) scenario.Params {
		p := scenario.Base(tx)
		// 2 J spans the model's whole arc over 900 s: at low Tx (light RX
		// load) batteries sink past the rotation threshold mid-run, and at
		// high Tx they exhaust outright — the curve shows rotation hand-offs
		// first, then the churn collapse of a dying network. A budget that
		// never crosses RotateFrac (say 12 J) is indistinguishable from
		// plain MOBIC everywhere.
		p.EnergyJ = 2
		return p
	}
	g := txGrid(
		baseCurve(cluster.MOBIC),
		algCurve("mobic-adaptive-bi", cluster.MOBIC, adaptiveBI, nil),
		baseCurve(cluster.AdaptiveLowestID),
		algCurve("mobic-energy", cluster.MOBIC, energyOn, nil),
	)
	rows, err := runGrids(ctx, r, g)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "policies",
		Title:  "A14: clustering policies — adaptive period, ID reassignment, energy rotation",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      g.xs,
	}
	for i, row := range rows {
		name := g.curves[i].name
		res.Series = append(res.Series, seriesOf(name, row, projectCH))
		var fairness float64
		for _, cell := range row {
			f, _ := projectFairness(cell)
			fairness += f
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: mean head-duty fairness %.3f across the sweep", name, fairness/float64(len(row))))
	}
	return res, nil
}

// MAC measures the effect of beacon collisions (A13): the same Figure 3
// sweep with the hello MAC collision model enabled vs disabled.
func MAC(ctx context.Context, r Runner) (*Result, error) {
	collide := func(cfg *simnet.Config) { cfg.HelloCollisions = true }
	g := txGrid(
		baseCurve(cluster.LCC),
		baseCurve(cluster.MOBIC),
		algCurve("lcc+mac", cluster.LCC, scenario.Base, collide),
		algCurve("mobic+mac", cluster.MOBIC, scenario.Base, collide),
	)
	return sweep(ctx, r, g, projectCH, Result{
		ID:     "mac",
		Title:  "A13: hello MAC collisions (0.8 ms airtime, per-beacon jitter)",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		Notes: []string{
			"Collisions destroy overlapping beacons at a receiver; the paper",
			"counts only MAC-successful receptions, which this model supplies.",
		},
	})
}

// Oracle compares the signal-strength mobility metric against a GPS oracle
// (A12): MOBIC's weight estimated from RxPr ratios vs the same weight
// computed from ground-truth range rates. If the estimate is good, the two
// curves should nearly coincide — quantifying how much the paper's
// "no GPS required" property costs.
func Oracle(ctx context.Context, r Runner) (*Result, error) {
	oracle, err := cluster.ByName("mobic-oracle")
	if err != nil {
		return nil, err
	}
	g := txGrid(baseCurve(cluster.LCC), baseCurve(cluster.MOBIC), baseCurve(oracle))
	return sweep(ctx, r, g, projectCH, Result{
		ID:     "oracle",
		Title:  "A12: RxPr-ratio metric vs GPS-oracle range rates",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		Notes: []string{
			"mobic-oracle elects by ground-truth range-rate variance (needs GPS);",
			"mobic estimates the same quantity from received-power ratios alone.",
		},
	})
}

// Fairness reports Jain's fairness index over per-node clusterhead duty
// time vs Tx: who pays the clusterhead tax under each election weight?
// Lowest-ID pins the burden on low IDs; MOBIC on relatively slow nodes;
// max-connectivity on central ones.
func Fairness(ctx context.Context, r Runner) (*Result, error) {
	g := txGrid(baseCurve(cluster.LCC), baseCurve(cluster.MOBIC), baseCurve(cluster.MaxConnectivity))
	return sweep(ctx, r, g, projectFairness, Result{
		ID:     "fairness",
		Title:  "Head-duty fairness (Jain index over per-node head time)",
		XLabel: "transmission range (m)",
		YLabel: "Jain fairness index",
		Notes: []string{
			"1 = every node serves equally as clusterhead; 1/N = one node",
			"carries everything. Stability and duty fairness trade off.",
		},
	})
}

// Residence reports mean clusterhead tenure vs Tx — a complementary
// stability view not plotted in the paper but implied by its analysis.
func Residence(ctx context.Context, r Runner) (*Result, error) {
	return sweep(ctx, r, fig3Grid(), projectRes, Result{
		ID:     "residence",
		Title:  "Clusterhead residence time vs Tx (670x670 m)",
		XLabel: "transmission range (m)",
		YLabel: "mean clusterhead tenure (s)",
	})
}

// Descriptor names one runnable experiment.
type Descriptor struct {
	// ID is the CLI identifier.
	ID string
	// Title describes the artifact regenerated.
	Title string
	// Run executes the experiment. Cancellation of ctx aborts in-flight
	// simulations promptly and surfaces ctx.Err().
	Run func(context.Context, Runner) (*Result, error)
	// MinDuration is the shortest simulated duration in seconds at which
	// the experiment takes a sample; 0 means any. Run fails on a shorter
	// run rather than return all-zero series.
	MinDuration float64
}

// ErrUnknownExperiment is returned by ByID for an unknown identifier.
var ErrUnknownExperiment = errors.New("experiment: unknown experiment")

// All lists every experiment in presentation order.
func All() []Descriptor {
	return []Descriptor{
		{ID: "table1", Title: "Table 1: simulation parameters", Run: Table1},
		{ID: "fig3", Title: "Figure 3: CH changes vs Tx (670x670)", Run: Fig3},
		{ID: "fig4", Title: "Figure 4: cluster count vs Tx", Run: Fig4},
		{ID: "fig5", Title: "Figure 5: CH changes vs Tx (1000x1000)", Run: Fig5},
		{ID: "fig6a", Title: "Figure 6(a): CH changes vs speed, PT=0", Run: Fig6a},
		{ID: "fig6b", Title: "Figure 6(b): CH changes vs speed, PT=30", Run: Fig6b},
		{ID: "ablate-cci", Title: "A1: CCI ablation", Run: AblateCCI},
		{ID: "ablate-lcc", Title: "A2: LCC ablation", Run: AblateLCC},
		{ID: "ablate-history", Title: "A3: EWMA history ablation", Run: AblateHistory},
		{ID: "adaptive-bi", Title: "A4: adaptive broadcast interval", Run: AdaptiveBIExp},
		{ID: "maxdeg", Title: "A6: max-connectivity baseline", Run: MaxDegree},
		{ID: "propagation", Title: "A7: propagation sensitivity", Run: Propagation},
		{ID: "loss", Title: "A8: packet-loss robustness", Run: Loss},
		{ID: "flooding", Title: "A9: flat vs cluster-based flooding", Run: Flooding, MinDuration: floodEvery},
		{ID: "routes", Title: "A10: backbone route lifetime and discovery cost", Run: Routes, MinDuration: routeMinDuration},
		{ID: "cbrp", Title: "A11: CBRP-lite routing over LCC vs MOBIC clusters", Run: CBRP},
		{ID: "oracle", Title: "A12: RxPr metric vs GPS-oracle range rates", Run: Oracle},
		{ID: "mac", Title: "A13: hello MAC collision sensitivity", Run: MAC},
		{ID: "policies", Title: "A14: clustering policies (adaptive BI, ID reassignment, energy)", Run: Policies},
		{ID: "fairness", Title: "Head-duty fairness (Jain index)", Run: Fairness},
		{ID: "failures", Title: "Decapitation: lowest-ID nodes crash mid-run", Run: Failures},
		{ID: "hierarchy", Title: "Routing-state reduction over the cluster hierarchy", Run: Hierarchy},
		{ID: "cci-sweep", Title: "CCI parameter sensitivity", Run: CCISweep},
		{ID: "bi-sweep", Title: "Broadcast-interval sensitivity", Run: BISweep},
		{ID: "wca", Title: "WCA-lite combined weight", Run: WCALite},
		{ID: "claims", Title: "Executable checklist of the paper's claims", Run: Claims},
		{ID: "timeline", Title: "Clusterhead churn over time", Run: Timeline},
		{ID: "convergence", Title: "Convergence time vs network diameter (O(d) claim)", Run: Convergence},
		{ID: "residence", Title: "Clusterhead residence time", Run: Residence},
	}
}

// ByID resolves an experiment descriptor.
func ByID(id string) (Descriptor, error) {
	for _, d := range All() {
		if d.ID == id {
			return d, nil
		}
	}
	return Descriptor{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}
