package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/obs"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// fastRunner trims every materialized config so unit tests stay quick while
// exercising the full harness path.
func fastRunner(seeds int) Runner {
	return Runner{
		Seeds:    seeds,
		BaseSeed: 1,
		Mutate: func(cfg *simnet.Config) {
			cfg.N = 15
			cfg.Duration = 60
		},
	}
}

func smallParams(tx float64) scenario.Params {
	p := scenario.Base(tx)
	p.Duration = 60
	p.N = 15
	return p
}

func TestRunCellsAggregates(t *testing.T) {
	r := Runner{Seeds: 3, BaseSeed: 1}
	cells := []Cell{
		{Params: smallParams(150), Algorithm: cluster.LCC},
		{Params: smallParams(150), Algorithm: cluster.MOBIC},
	}
	stats, err := r.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d cell stats, want 2", len(stats))
	}
	for i, cs := range stats {
		if len(cs.Raw) != 3 {
			t.Errorf("cell %d: %d raw results, want 3 (one per seed)", i, len(cs.Raw))
		}
		if cs.AvgClusters <= 0 {
			t.Errorf("cell %d: AvgClusters = %v", i, cs.AvgClusters)
		}
		if cs.Broadcasts <= 0 {
			t.Errorf("cell %d: Broadcasts = %v", i, cs.Broadcasts)
		}
	}
}

func TestRunCellsDeterministicAcrossWorkerCounts(t *testing.T) {
	cells := []Cell{
		{Params: smallParams(100), Algorithm: cluster.MOBIC},
		{Params: smallParams(200), Algorithm: cluster.LCC},
	}
	serial := Runner{Seeds: 2, BaseSeed: 1, Workers: 1}
	parallel := Runner{Seeds: 2, BaseSeed: 1, Workers: 8}
	a, err := serial.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].CHChanges != b[i].CHChanges || a[i].AvgClusters != b[i].AvgClusters {
			t.Errorf("cell %d differs across worker counts: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunCellsPropagatesErrors(t *testing.T) {
	bad := scenario.Base(150)
	bad.N = -1
	r := Runner{Seeds: 1}
	if _, err := r.RunCells(context.Background(), []Cell{{Params: bad, Algorithm: cluster.MOBIC}}); err == nil {
		t.Error("invalid cell should error")
	}
}

func TestRunCellsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{Seeds: 1, Workers: 1}
	cells := []Cell{{Params: smallParams(100), Algorithm: cluster.MOBIC}}
	_, err := r.RunCells(ctx, cells)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunCellsCanceledMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Runner{
		Seeds:   1,
		Workers: 1,
		// Cancel as soon as the first cell completes; the remaining
		// cells must be skipped and the sweep must fail with ctx.Err().
		Progress: func(done, total int) {
			if done == 1 {
				cancel()
			}
		},
	}
	var cells []Cell
	for i := 0; i < 8; i++ {
		cells = append(cells, Cell{Params: smallParams(100), Algorithm: cluster.MOBIC})
	}
	_, err := r.RunCells(ctx, cells)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// The first worker error must abort the sweep: remaining queued jobs are
// skipped instead of being fully simulated. The bad cell fails inside
// simnet.New (TimeoutPeriod below BroadcastInterval) before emitting any
// events; every healthy cell carries an observer counting its events, so a
// zero count proves none of them ran.
func TestRunCellsAbortsSweepOnFirstError(t *testing.T) {
	var simulatedEvents atomic.Int64
	r := Runner{
		Seeds:    1,
		BaseSeed: 1,
		Workers:  1,
		Mutate: func(cfg *simnet.Config) {
			cfg.N = 15
			cfg.Duration = 60
			cfg.Observer = func(trace.Event) { simulatedEvents.Add(1) }
		},
	}
	cells := []Cell{{
		Params:    smallParams(150),
		Algorithm: cluster.MOBIC,
		// Invalid: neighbors would expire between beacons; simnet.New
		// rejects it after the runner's Mutate ran.
		Mutate: func(cfg *simnet.Config) { cfg.TimeoutPeriod = cfg.BroadcastInterval / 2 },
	}}
	for i := 0; i < 6; i++ {
		cells = append(cells, Cell{Params: smallParams(150), Algorithm: cluster.MOBIC})
	}

	_, err := r.RunCells(context.Background(), cells)
	if err == nil || !strings.Contains(err.Error(), "cell 0") {
		t.Fatalf("err = %v, want the cell 0 config error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v: the internal abort leaked instead of the root cause", err)
	}
	if n := simulatedEvents.Load(); n != 0 {
		t.Errorf("%d events simulated after the first error; queued jobs were not skipped", n)
	}
}

func TestRunCellsProgress(t *testing.T) {
	var calls atomic.Int64
	r := Runner{
		Seeds:    2,
		BaseSeed: 1,
		Progress: func(done, total int) {
			calls.Add(1)
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
		},
	}
	cells := []Cell{
		{Params: smallParams(100), Algorithm: cluster.MOBIC},
		{Params: smallParams(100), Algorithm: cluster.LCC},
	}
	if _, err := r.RunCells(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("progress called %d times, want 4", calls.Load())
	}
}

// TestClaimsProgressIsMonotonic checks that Claims runs its 67 cells in
// one pool call and reports one progress count over them: the done count
// never falls back, the total is 67×Seeds throughout, and the last call is
// (total, total).
func TestClaimsProgressIsMonotonic(t *testing.T) {
	r := fastRunner(1)
	r.Workers = 1
	var calls [][2]int
	r.Progress = func(done, total int) { calls = append(calls, [2]int{done, total}) }
	if _, err := Claims(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("Claims never reported progress")
	}
	total := calls[0][1]
	if total != 67 {
		t.Errorf("total %d, want 67 cells × 1 seed", total)
	}
	for i, c := range calls {
		if c[1] != total {
			t.Fatalf("call %d: total %d, want %d throughout", i, c[1], total)
		}
		if i > 0 && c[0] < calls[i-1][0] {
			t.Fatalf("call %d: done fell from %d to %d", i, calls[i-1][0], c[0])
		}
	}
	if last := calls[len(calls)-1]; last != [2]int{total, total} || len(calls) != total {
		t.Errorf("last call %v after %d calls, want (%d, %d) after %d", last, len(calls), total, total, total)
	}
}

// TestShortRunsFailByName checks that flooding and routes, whose first
// sample comes 100 s and 120 s into a run, fail on a shorter run with an
// error naming that minimum instead of returning all-zero series, and that
// their descriptors carry the same minimum.
func TestShortRunsFailByName(t *testing.T) {
	for _, tc := range []struct {
		id  string
		min float64
	}{{"flooding", 100}, {"routes", 120}} {
		d, err := ByID(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if d.MinDuration != tc.min {
			t.Errorf("%s: MinDuration %g, want %g", tc.id, d.MinDuration, tc.min)
		}
		r := fastRunner(1)
		r.Mutate = func(cfg *simnet.Config) { cfg.N, cfg.Duration = 15, tc.min-1 }
		_, err = d.Run(context.Background(), r)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at least %g s", tc.min)) {
			t.Errorf("%s at %g s: err = %v, want one naming %g s", tc.id, tc.min-1, err, tc.min)
		}
	}
}

func TestRegistryAllUniqueAndResolvable(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range All() {
		if seen[d.ID] {
			t.Errorf("duplicate experiment ID %q", d.ID)
		}
		seen[d.ID] = true
		if d.Run == nil {
			t.Errorf("experiment %q has no Run", d.ID)
		}
		if d.Title == "" {
			t.Errorf("experiment %q has no title", d.ID)
		}
		got, err := ByID(d.ID)
		if err != nil || got.ID != d.ID {
			t.Errorf("ByID(%q) = %v, %v", d.ID, got.ID, err)
		}
	}
	// Every figure and table of the paper must be present.
	for _, required := range []string{"table1", "fig3", "fig4", "fig5", "fig6a", "fig6b"} {
		if !seen[required] {
			t.Errorf("paper artifact %q missing from registry", required)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	_, err := ByID("fig99")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("err = %v, want ErrUnknownExperiment", err)
	}
}

func TestTable1Experiment(t *testing.T) {
	res, err := Table1(context.Background(), Runner{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) != 9 {
		t.Errorf("table1 has %d rows, want 9", len(res.Notes))
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"Number of Nodes", "900 sec", "Cluster Contention Interval"} {
		if !strings.Contains(joined, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestFig6aSmall(t *testing.T) {
	res, err := Fig6a(context.Background(), fastRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig6a" {
		t.Errorf("ID = %q", res.ID)
	}
	if len(res.X) != 3 {
		t.Errorf("X = %v, want 3 speeds", res.X)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Y) != 3 {
			t.Errorf("series %q has %d points", s.Name, len(s.Y))
		}
	}
}

func TestLossExperimentSmall(t *testing.T) {
	res, err := Loss(context.Background(), fastRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != 6 || len(res.Series) != 2 {
		t.Fatalf("loss shape: %d x, %d series", len(res.X), len(res.Series))
	}
}

func TestFloodingExperimentStructure(t *testing.T) {
	// Trim every flooding replication to the one flood at 100 s.
	r := fastRunner(1)
	r.Mutate = func(cfg *simnet.Config) { cfg.N, cfg.Duration = 15, 100 }
	res, err := Flooding(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("flooding series = %d, want 3", len(res.Series))
	}
	flat, clus := res.Series[0], res.Series[1]
	for i := range res.X {
		if flat.Y[i] <= 0 {
			t.Errorf("tx=%v: flat flood took no sample", res.X[i])
		}
		if clus.Y[i] > flat.Y[i]+1e-9 {
			t.Errorf("tx=%v: cluster flood (%v) costs more than flat (%v)",
				res.X[i], clus.Y[i], flat.Y[i])
		}
	}
}

func TestTimelineExperimentSmall(t *testing.T) {
	res, err := Timeline(context.Background(), fastRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if len(res.X) == 0 {
		t.Fatal("no windows")
	}
	for _, s := range res.Series {
		if len(s.Y) != len(res.X) {
			t.Errorf("series %q has %d points for %d windows", s.Name, len(s.Y), len(res.X))
		}
	}
	// The formation burst lands in the first window.
	if res.Series[0].Y[0] == 0 && res.Series[1].Y[0] == 0 {
		t.Error("first window should contain the formation burst")
	}
}

func TestFairnessExperimentSmall(t *testing.T) {
	res, err := Fairness(context.Background(), fastRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("fairness series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		for i, y := range s.Y {
			if y < 0 || y > 1 {
				t.Errorf("series %q point %d: Jain index %v outside [0,1]", s.Name, i, y)
			}
		}
	}
}

func TestClaimsExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("claims runs several sweeps")
	}
	res, err := Claims(context.Background(), fastRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) < 11 {
		t.Fatalf("claims produced %d notes, want >= 11", len(res.Notes))
	}
	for _, note := range res.Notes {
		if !strings.HasPrefix(note, "[PASS]") && !strings.HasPrefix(note, "[FAIL]") {
			t.Errorf("claim note missing status: %q", note)
		}
	}
}

func TestConvergenceExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several static scenarios")
	}
	r := Runner{Seeds: 1}
	res, err := Convergence(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || len(res.X) != 5 {
		t.Fatalf("convergence shape: %d series, %d x", len(res.Series), len(res.X))
	}
	diam := res.Series[1].Y
	for i := 1; i < len(diam); i++ {
		if diam[i] < diam[i-1] {
			t.Errorf("hop diameter should grow with area: %v", diam)
		}
	}
}

func TestFailuresExperimentSmall(t *testing.T) {
	// The decapitation preset kills nodes 0-9, so the trimmed config must
	// keep at least that many nodes.
	r := Runner{
		Seeds: 1,
		Mutate: func(cfg *simnet.Config) {
			cfg.N = 20
			cfg.Duration = 400
		},
	}
	res, err := Failures(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || len(res.X) == 0 {
		t.Fatalf("failures shape: %d series, %d x", len(res.Series), len(res.X))
	}
}

func TestHierarchyExperimentSmall(t *testing.T) {
	res, err := Hierarchy(context.Background(), fastRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("hierarchy series = %d", len(res.Series))
	}
	// Routing-state reduction must be >= 1 everywhere (hierarchy never
	// costs more state than flat proactive routing).
	for i, y := range res.Series[0].Y {
		if y < 1 {
			t.Errorf("reduction at x=%v is %v < 1", res.X[i], y)
		}
	}
}

func TestSensitivityExperimentsSmall(t *testing.T) {
	for _, run := range []func(context.Context, Runner) (*Result, error){CCISweep, BISweep, WCALite} {
		res, err := run(context.Background(), fastRunner(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.X) == 0 || len(res.Series) == 0 {
			t.Errorf("%s: empty result", res.ID)
		}
		for _, s := range res.Series {
			if len(s.Y) != len(res.X) {
				t.Errorf("%s series %q misaligned", res.ID, s.Name)
			}
		}
	}
}

func TestRoutesExperimentSmall(t *testing.T) {
	// Trim every replication to the one discovery epoch at 60 s.
	r := fastRunner(1)
	r.Mutate = func(cfg *simnet.Config) { cfg.N, cfg.Duration = 15, 120 }
	res, err := Routes(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("routes series = %d, want 6 (node life, cluster life, cost x2 algs)", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Y) != len(res.X) {
			t.Errorf("series %q misaligned", s.Name)
		}
	}
	for _, cost := range res.Series[4:] {
		for i, y := range cost.Y {
			if y <= 0 {
				t.Errorf("%s at tx=%v: no discovery sampled", cost.Name, res.X[i])
			}
		}
	}
}

// The headline reproduction, trimmed: at Tx=250 MOBIC must beat LCC.
func TestFig3ShapeTrimmed(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	r := Runner{
		Seeds: 2,
		Mutate: func(cfg *simnet.Config) {
			cfg.Duration = 300
		},
	}
	res, err := Fig3(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	lcc, mobic := res.Series[0], res.Series[1]
	last := len(res.X) - 1
	if mobic.Y[last] >= lcc.Y[last] {
		t.Errorf("at Tx=250: mobic %v >= lcc %v", mobic.Y[last], lcc.Y[last])
	}
	// Unimodal-ish: the peak must not be at either extreme of the sweep.
	peak := 0
	for i, y := range lcc.Y {
		if y > lcc.Y[peak] {
			peak = i
		}
	}
	if peak == 0 || peak == last {
		t.Errorf("lcc peak at sweep boundary (index %d): %v", peak, lcc.Y)
	}
}

func TestAdaptiveBIExperimentSmall(t *testing.T) {
	res, err := AdaptiveBIExp(context.Background(), fastRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "adaptive-bi" {
		t.Errorf("ID = %q", res.ID)
	}
	nx := len(scenario.SpeedSweep())
	if len(res.X) != nx || len(res.Series) != 3 {
		t.Fatalf("adaptive-bi shape: %d x, %d series, want %d x 3", len(res.X), len(res.Series), nx)
	}
	// Every variant reports its beacon budget — that's the trade the
	// experiment exists to show.
	if len(res.Notes) != 3*nx {
		t.Errorf("adaptive-bi notes = %d, want %d beacon-count notes", len(res.Notes), 3*nx)
	}
}

func TestPoliciesExperimentSmall(t *testing.T) {
	res, err := Policies(context.Background(), fastRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "policies" {
		t.Errorf("ID = %q", res.ID)
	}
	nx := len(scenario.TxSweep())
	if len(res.X) != nx {
		t.Fatalf("policies X = %d points, want the Tx sweep (%d)", len(res.X), nx)
	}
	want := []string{"mobic", "mobic-adaptive-bi", "adaptive-lowest-id", "mobic-energy"}
	if len(res.Series) != len(want) {
		t.Fatalf("policies series = %d, want %d", len(res.Series), len(want))
	}
	for i, s := range res.Series {
		if s.Name != want[i] {
			t.Errorf("series[%d] = %q, want %q", i, s.Name, want[i])
		}
		if len(s.Y) != nx {
			t.Errorf("series %q has %d points, want %d", s.Name, len(s.Y), nx)
		}
	}
	// One fairness note per policy curve.
	if len(res.Notes) != len(want) {
		t.Errorf("policies notes = %d, want one fairness line per curve", len(res.Notes))
	}
	for _, n := range res.Notes {
		if !strings.Contains(n, "head-duty fairness") {
			t.Errorf("note %q missing the fairness metric", n)
		}
	}
}

// Every experiment runs through the one replication pool, so every one
// must honour the Runner the same way: a canceled context fails it, its
// progress reaches the full count, its output does not depend on Workers,
// and r.Mutate reaches every replication that runs. Each makes one pool
// call, so the progress gauge never falls back and ends at 1.
func TestEveryExperimentHonoursRunner(t *testing.T) {
	for _, d := range All() {
		t.Run(d.ID, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := d.Run(ctx, fastRunner(1)); !errors.Is(err, context.Canceled) {
				t.Errorf("pre-canceled context: err = %v, want context.Canceled", err)
			}

			var outputs [][]byte
			for _, workers := range []int{1, 4} {
				var (
					mu        sync.Mutex
					ran       []*atomic.Bool
					calls     int
					lastDone  int
					lastTotal int
					gauge     float64
				)
				reg := obs.NewRegistry()
				r := Runner{
					Seeds:   2,
					Workers: workers,
					Obs:     reg,
					Mutate: func(cfg *simnet.Config) {
						// 120 s reaches flooding's and routes' first probe.
						cfg.N = 15
						cfg.Duration = 120
						hit := new(atomic.Bool)
						cfg.Observer = func(trace.Event) { hit.Store(true) }
						mu.Lock()
						ran = append(ran, hit)
						mu.Unlock()
					},
					Progress: func(done, total int) {
						mu.Lock()
						defer mu.Unlock()
						if done <= 0 || done > total {
							t.Errorf("progress (%d, %d) out of range", done, total)
						}
						calls++
						lastDone, lastTotal = done, total
						g := reg.Gauge(obs.ExpProgress)
						if g < gauge {
							t.Errorf("progress gauge fell from %g to %g at (%d, %d)", gauge, g, done, total)
						}
						gauge = g
					},
				}
				res, err := d.Run(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				out, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				outputs = append(outputs, out)

				mu.Lock()
				if d.ID != "table1" { // echoes a table; runs no replication
					if lastTotal == 0 || lastDone != lastTotal {
						t.Errorf("workers=%d: last progress (%d, %d), want done == total > 0",
							workers, lastDone, lastTotal)
					}
					if gauge != 1 {
						t.Errorf("workers=%d: progress gauge ends at %g, want 1", workers, gauge)
					}
				}
				if len(ran) != calls {
					t.Errorf("workers=%d: Mutate called %d times for %d finished replications",
						workers, len(ran), calls)
				}
				for i, hit := range ran {
					if !hit.Load() {
						t.Errorf("workers=%d: mutated config %d never ran", workers, i)
					}
				}
				mu.Unlock()
			}
			if string(outputs[0]) != string(outputs[1]) {
				t.Errorf("output differs between Workers 1 and 4:\n%s\n%s", outputs[0], outputs[1])
			}
		})
	}
}

// A run shorter than the default crash time crashes the victims at a third
// of the run instead of failing every replication.
func TestFailuresShortDuration(t *testing.T) {
	r := Runner{Seeds: 1, Mutate: func(cfg *simnet.Config) { cfg.Duration = 60 }}
	res, err := Failures(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Title, "crash at t=20 s") {
		t.Errorf("title %q, want the crash at t=20 s", res.Title)
	}
	if len(res.X) != 1 || len(res.Series) != 2 {
		t.Errorf("failures shape: %d x, %d series, want 1 window x 2", len(res.X), len(res.Series))
	}
}

// A resumed sweep counts progress over every cell, not only the cells it
// re-runs: it starts past the resumed prefix and ends at the full count.
func TestRunCellsResumedProgress(t *testing.T) {
	var cells []Cell
	for i := 0; i < 6; i++ {
		cells = append(cells, Cell{Params: smallParams(100), Algorithm: cluster.MOBIC})
	}
	var (
		mu    sync.Mutex
		dones []int
	)
	r := Runner{
		Seeds:     2,
		Workers:   1,
		StartCell: 3,
		Resume:    make([]CellStats, 3),
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != 12 {
				t.Errorf("total = %d, want 12 (6 cells x 2 seeds)", total)
			}
			dones = append(dones, done)
		},
	}
	if _, err := r.RunCells(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	want := []int{7, 8, 9, 10, 11, 12}
	if len(dones) != len(want) {
		t.Fatalf("progress calls %v, want %v", dones, want)
	}
	for i := range want {
		if dones[i] != want[i] {
			t.Fatalf("progress calls %v, want %v", dones, want)
		}
	}
}
