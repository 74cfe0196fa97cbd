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

// variant is one curve of a figure: an algorithm plus an optional config
// mutation.
type variant struct {
	name   string
	alg    cluster.Algorithm
	mutate func(*simnet.Config)
}

// paperVariants returns the two curves of Figures 3-6: the Lowest-ID (LCC)
// baseline and MOBIC.
func paperVariants() []variant {
	return []variant{
		{name: "lowest-id(lcc)", alg: cluster.LCC},
		{name: "mobic", alg: cluster.MOBIC},
	}
}

// sweep runs one figure: for each variant, for each x, a cell; the result
// carries one series per variant with the projected metric.
func sweep(
	ctx context.Context,
	r Runner,
	xs []float64,
	paramsFor func(x float64) scenario.Params,
	variants []variant,
	project func(CellStats) (y, ci float64),
) ([]Series, error) {
	var cells []Cell
	for _, v := range variants {
		for _, x := range xs {
			cells = append(cells, Cell{Params: paramsFor(x), Algorithm: v.alg, Mutate: v.mutate})
		}
	}
	statsPerCell, err := r.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	series := make([]Series, len(variants))
	for vi, v := range variants {
		series[vi] = seriesOf(v.name, statsPerCell[vi*len(xs):(vi+1)*len(xs)], project)
	}
	return series, nil
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
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, paperVariants(), projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig3",
		Title:  "Figure 3: clusterhead changes vs Tx (670x670 m, MaxSpeed 20, PT 0)",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
	}, nil
}

// Fig4 regenerates Figure 4: average number of clusters vs transmission
// range on the same scenario as Figure 3.
func Fig4(ctx context.Context, r Runner) (*Result, error) {
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, paperVariants(), projectNC)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig4",
		Title:  "Figure 4: number of clusters vs Tx (670x670 m, MaxSpeed 20, PT 0)",
		XLabel: "transmission range (m)",
		YLabel: "average number of clusters",
		X:      scenario.TxSweep(),
		Series: series,
	}, nil
}

// Fig5 regenerates Figure 5: clusterhead changes vs transmission range on
// the sparser 1000x1000 m scenario.
func Fig5(ctx context.Context, r Runner) (*Result, error) {
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Sparse, paperVariants(), projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig5",
		Title:  "Figure 5: clusterhead changes vs Tx (1000x1000 m, MaxSpeed 20, PT 0)",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
	}, nil
}

// fig6 regenerates one panel of Figure 6: clusterhead changes vs MaxSpeed
// at Tx = 250 m with the given pause time.
func fig6(ctx context.Context, r Runner, id string, pause float64) (*Result, error) {
	paramsFor := func(speed float64) scenario.Params {
		return scenario.Mobility(speed, pause)
	}
	series, err := sweep(ctx, r, scenario.SpeedSweep(), paramsFor, paperVariants(), projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     id,
		Title:  fmt.Sprintf("Figure 6 (PT=%g s): clusterhead changes vs MaxSpeed (Tx 250 m)", pause),
		XLabel: "max speed (m/s)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.SpeedSweep(),
		Series: series,
	}, nil
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
	noCCI, err := cluster.ByName("mobic-nocci")
	if err != nil {
		return nil, err
	}
	lccCCI := cluster.LCC
	lccCCI.Name = "lcc+cci"
	lccCCI.Policy.CCI = cluster.DefaultCCI
	variants := []variant{
		{name: "lcc", alg: cluster.LCC},
		{name: "mobic", alg: cluster.MOBIC},
		{name: "mobic-nocci", alg: noCCI},
		{name: "lcc+cci", alg: lccCCI},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "ablate-cci",
		Title:  "A1: CCI ablation — contention deferral vs mobility weight",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
		Notes: []string{
			"mobic-nocci isolates the mobility metric: it reproduces the paper's",
			"crossover (worse than LCC at small Tx, better at large Tx).",
			"CCI alone (lcc+cci) suppresses transient head-head contacts.",
		},
	}, nil
}

// AblateLCC compares the original aggressive Lowest-ID against LCC (A2),
// reproducing the motivation from Chiang et al. [3].
func AblateLCC(ctx context.Context, r Runner) (*Result, error) {
	variants := []variant{
		{name: "lowest-id", alg: cluster.LowestID},
		{name: "lcc", alg: cluster.LCC},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "ablate-lcc",
		Title:  "A2: LCC ablation — aggressive vs least-clusterhead-change maintenance",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
	}, nil
}

// AblateHistory tests the paper's Section 5 history extension (A3): EWMA
// smoothing of the aggregate mobility metric.
func AblateHistory(ctx context.Context, r Runner) (*Result, error) {
	mk := func(name string, alpha float64) variant {
		a := cluster.MOBIC
		a.Name = name
		a.EWMAAlpha = alpha
		return variant{name: name, alg: a}
	}
	pair := cluster.MOBIC
	pair.Name = "mobic-pair-0.5"
	pair.PairwiseEWMAAlpha = 0.5
	variants := []variant{
		{name: "mobic", alg: cluster.MOBIC},
		mk("mobic-ewma-0.5", 0.5),
		mk("mobic-ewma-0.25", 0.25),
		{name: "mobic-pair-0.5", alg: pair},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "ablate-history",
		Title:  "A3: history ablation — EWMA smoothing of M (paper Section 5)",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
	}, nil
}

// MaxDegree adds the max-connectivity baseline from Section 2.1 (A6).
func MaxDegree(ctx context.Context, r Runner) (*Result, error) {
	variants := []variant{
		{name: "lcc", alg: cluster.LCC},
		{name: "mobic", alg: cluster.MOBIC},
		{name: "max-degree", alg: cluster.MaxConnectivity},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "maxdeg",
		Title:  "A6: max-connectivity baseline stability",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
	}, nil
}

// Propagation measures the sensitivity of MOBIC to the channel model (A7).
func Propagation(ctx context.Context, r Runner) (*Result, error) {
	shadow := func(cfg *simnet.Config) {
		cfg.Propagation = radio.NewShadowing(2.7, 4,
			rand.New(rand.NewPCG(cfg.Seed, 0x5aad)))
	}
	free := func(cfg *simnet.Config) { cfg.Propagation = radio.NewFreeSpace() }
	variants := []variant{
		{name: "mobic-tworay", alg: cluster.MOBIC},
		{name: "mobic-freespace", alg: cluster.MOBIC, mutate: free},
		{name: "mobic-shadowing", alg: cluster.MOBIC, mutate: shadow},
		{name: "lcc-tworay", alg: cluster.LCC},
		{name: "lcc-shadowing", alg: cluster.LCC, mutate: shadow},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "propagation",
		Title:  "A7: propagation-model sensitivity",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
		Notes: []string{
			"Shadowing (sigma 4 dB) adds reception noise to the RxPr ratios;",
			"MOBIC's advantage should persist if the metric is robust.",
		},
	}, nil
}

// Loss measures robustness of the metric to MAC-level packet loss (A8).
func Loss(ctx context.Context, r Runner) (*Result, error) {
	rates := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	paramsFor := func(float64) scenario.Params { return scenario.Base(150) }
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
	// The loss rate is the X axis, so cells are built manually.
	var cells []Cell
	algs := []cluster.Algorithm{cluster.LCC, cluster.MOBIC}
	for _, alg := range algs {
		for _, rate := range rates {
			cells = append(cells, Cell{
				Params:    paramsFor(rate),
				Algorithm: alg,
				Mutate:    mkLoss(rate),
			})
		}
	}
	cs, err := r.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "loss",
		Title:  "A8: packet-loss robustness (Tx 150 m)",
		XLabel: "uniform hello loss rate",
		YLabel: "clusterhead changes / 900 s",
		X:      rates,
		Series: []Series{seriesOf("lcc", cs[:len(rates)], projectCH), seriesOf("mobic", cs[len(rates):], projectCH)},
	}, nil
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
	variants := []variant{
		{name: "mobic-bi2", alg: cluster.MOBIC},
		{name: "mobic-bi4", alg: cluster.MOBIC, mutate: fixedSlow},
		{name: "mobic-adaptive", alg: cluster.MOBIC, mutate: adaptive},
	}
	var cells []Cell
	for _, v := range variants {
		for _, x := range scenario.SpeedSweep() {
			cells = append(cells, Cell{Params: paramsFor(x), Algorithm: v.alg, Mutate: v.mutate})
		}
	}
	cs, err := r.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "adaptive-bi",
		Title:  "A4: mobility-adaptive broadcast interval (paper Section 5)",
		XLabel: "max speed (m/s)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.SpeedSweep(),
	}
	nx := len(scenario.SpeedSweep())
	for vi, v := range variants {
		row := cs[vi*nx : (vi+1)*nx]
		res.Series = append(res.Series, seriesOf(v.name, row, projectCH))
		for xi, cell := range row {
			res.Notes = append(res.Notes, fmt.Sprintf("%s at %g m/s: %.0f beacons",
				v.name, scenario.SpeedSweep()[xi], cell.Broadcasts))
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
	base := scenario.Base
	adaptiveBI := func(tx float64) scenario.Params {
		p := base(tx)
		p.BIMin, p.BIMax = 0.5, 4
		p.TP = 6 // outlast the longest adaptive interval
		return p
	}
	energyOn := func(tx float64) scenario.Params {
		p := base(tx)
		// 2 J spans the model's whole arc over 900 s: at low Tx (light RX
		// load) batteries sink past the rotation threshold mid-run, and at
		// high Tx they exhaust outright — the curve shows rotation hand-offs
		// first, then the churn collapse of a dying network. A budget that
		// never crosses RotateFrac (say 12 J) is indistinguishable from
		// plain MOBIC everywhere.
		p.EnergyJ = 2
		return p
	}
	type curve struct {
		name      string
		alg       cluster.Algorithm
		paramsFor func(float64) scenario.Params
	}
	curves := []curve{
		{name: "mobic", alg: cluster.MOBIC, paramsFor: base},
		{name: "mobic-adaptive-bi", alg: cluster.MOBIC, paramsFor: adaptiveBI},
		{name: "adaptive-lowest-id", alg: cluster.AdaptiveLowestID, paramsFor: base},
		{name: "mobic-energy", alg: cluster.MOBIC, paramsFor: energyOn},
	}
	xs := scenario.TxSweep()
	var cells []Cell
	for _, c := range curves {
		for _, x := range xs {
			cells = append(cells, Cell{Params: c.paramsFor(x), Algorithm: c.alg})
		}
	}
	cs, err := r.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "policies",
		Title:  "A14: clustering policies — adaptive period, ID reassignment, energy rotation",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      xs,
	}
	for ci, c := range curves {
		row := cs[ci*len(xs) : (ci+1)*len(xs)]
		res.Series = append(res.Series, seriesOf(c.name, row, projectCH))
		var fairness float64
		for _, cell := range row {
			f, _ := projectFairness(cell)
			fairness += f
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: mean head-duty fairness %.3f across the sweep", c.name, fairness/float64(len(xs))))
	}
	return res, nil
}

// MAC measures the effect of beacon collisions (A13): the same Figure 3
// sweep with the hello MAC collision model enabled vs disabled.
func MAC(ctx context.Context, r Runner) (*Result, error) {
	collide := func(cfg *simnet.Config) { cfg.HelloCollisions = true }
	variants := []variant{
		{name: "lcc", alg: cluster.LCC},
		{name: "mobic", alg: cluster.MOBIC},
		{name: "lcc+mac", alg: cluster.LCC, mutate: collide},
		{name: "mobic+mac", alg: cluster.MOBIC, mutate: collide},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "mac",
		Title:  "A13: hello MAC collisions (0.8 ms airtime, per-beacon jitter)",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
		Notes: []string{
			"Collisions destroy overlapping beacons at a receiver; the paper",
			"counts only MAC-successful receptions, which this model supplies.",
		},
	}, nil
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
	variants := []variant{
		{name: "lcc", alg: cluster.LCC},
		{name: "mobic", alg: cluster.MOBIC},
		{name: "mobic-oracle", alg: oracle},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectCH)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "oracle",
		Title:  "A12: RxPr-ratio metric vs GPS-oracle range rates",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes / 900 s",
		X:      scenario.TxSweep(),
		Series: series,
		Notes: []string{
			"mobic-oracle elects by ground-truth range-rate variance (needs GPS);",
			"mobic estimates the same quantity from received-power ratios alone.",
		},
	}, nil
}

// Fairness reports Jain's fairness index over per-node clusterhead duty
// time vs Tx: who pays the clusterhead tax under each election weight?
// Lowest-ID pins the burden on low IDs; MOBIC on relatively slow nodes;
// max-connectivity on central ones.
func Fairness(ctx context.Context, r Runner) (*Result, error) {
	variants := []variant{
		{name: "lcc", alg: cluster.LCC},
		{name: "mobic", alg: cluster.MOBIC},
		{name: "max-degree", alg: cluster.MaxConnectivity},
	}
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, variants, projectFairness)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fairness",
		Title:  "Head-duty fairness (Jain index over per-node head time)",
		XLabel: "transmission range (m)",
		YLabel: "Jain fairness index",
		X:      scenario.TxSweep(),
		Series: series,
		Notes: []string{
			"1 = every node serves equally as clusterhead; 1/N = one node",
			"carries everything. Stability and duty fairness trade off.",
		},
	}, nil
}

// Residence reports mean clusterhead tenure vs Tx — a complementary
// stability view not plotted in the paper but implied by its analysis.
func Residence(ctx context.Context, r Runner) (*Result, error) {
	series, err := sweep(ctx, r, scenario.TxSweep(), scenario.Base, paperVariants(), projectRes)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "residence",
		Title:  "Clusterhead residence time vs Tx (670x670 m)",
		XLabel: "transmission range (m)",
		YLabel: "mean clusterhead tenure (s)",
		X:      scenario.TxSweep(),
		Series: series,
	}, nil
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
