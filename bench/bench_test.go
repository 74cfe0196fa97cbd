package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "with TestUpdatePins, rewrite the pinned engine outputs in testdata/expected.json")

const pinPath = "testdata/expected.json"

// TestUpdatePins rewrites every pinned output: the smoke-size ones TestSmoke
// checks and the full-size ones a benchmark run checks, for seeds 1 and 2.
// It runs only with -update, after an intended behaviour change, and takes
// about a minute.
func TestUpdatePins(t *testing.T) {
	if !*update {
		t.Skip("rewrites testdata/expected.json; run with -update")
	}
	pins := map[string]any{}
	for _, w := range []string{"paper-figs", "mega-10k"} {
		for _, opts := range []options{{seed: 1, tiny: true}, {seed: 1}, {seed: 2}} {
			opts.workload, opts.seconds, opts.outDir = w, 1, t.TempDir()
			var stdout, stderr bytes.Buffer
			_, outputs, err := runOne(context.Background(), opts, &stdout, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			pins[pinKey(opts)] = outputs
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSmoke runs every workload at smoke-test size, output checks
// included, so the benchmark keeps compiling and keeps checking what it
// measures. svc-mixed also runs traced, which exercises the CPU-profile
// attribution and every per-layer probe on a live daemon.
func TestSmoke(t *testing.T) {
	runs := []struct {
		workload string
		trace    bool
	}{
		{"paper-figs", false}, {"mega-10k", false}, {"svc-mixed", false}, {"cluster-2w", false}, {"svc-mixed", true},
	}
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s/trace=%t", r.workload, r.trace), func(t *testing.T) {
			opts := options{workload: r.workload, seed: 1, seconds: 1, trace: r.trace, outDir: t.TempDir(), tiny: true}
			var stdout, stderr bytes.Buffer
			res, outputs, err := runOne(context.Background(), opts, &stdout, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if outputs != nil {
				if pinned, err := checkPinned(opts, outputs); err != nil || !pinned {
					t.Fatalf("pinned=%t err=%v", pinned, err)
				}
			}
			defs := endToEnd
			if r.trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || v.Unit != d.Unit {
					t.Errorf("metric %s = %+v", d.Name, v)
				}
				if !r.trace && v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
				}
			}
			if r.trace {
				for _, name := range []string{"simnet.cpu_share", "sim.events", "radio.rxpower_calls", "http.submit.count", "journal.syncs_per_job", "cache.hits"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("traced %s = %v, want > 0", name, res.Metrics[name].Value)
					}
				}
				if _, err := os.Stat(filepath.Join(opts.outDir, "trace-"+r.workload+".json")); err != nil {
					t.Errorf("no span file: %v", err)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json, which holds
// the bounds, in step with the metrics and workloads the code reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []boundedMetric              `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, code runs %s", got, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, code reports %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, code reports %+v", i, m, perLayer[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

// runsAround returns n samples for seeds 1..n spread evenly over
// center*(1±jitter).
func runsAround(center, jitter float64, n int) []sample {
	out := make([]sample, n)
	for i := range out {
		f := -1 + 2*float64(i)/float64(n-1)
		out[i] = sample{uint64(i + 1), center * (1 + jitter*f)}
	}
	return out
}

func TestJudge(t *testing.T) {
	steady := runsAround(100, 0.02, 10)
	// drifting is a parent whose runs spread over ±30%, as when the
	// machine's speed drifts between pairs of runs.
	drifting := runsAround(100, 0.3, 10)
	shift := func(ss []sample, k float64) []sample {
		out := make([]sample, len(ss))
		for i, s := range ss {
			out[i] = sample{s.seed, s.value * k}
		}
		return out
	}
	// scatter multiplies each run by its own factor, so the pairs disagree.
	scatter := func(ss []sample, ks ...float64) []sample {
		out := make([]sample, len(ss))
		for i, s := range ss {
			out[i] = sample{s.seed, s.value * ks[i%len(ks)]}
		}
		return out
	}
	// unpaired gives runs seeds no parent run has.
	unpaired := func(ss []sample) []sample {
		out := make([]sample, len(ss))
		for i, s := range ss {
			out[i] = sample{s.seed + 100, s.value}
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []sample
		better         string
		bound          float64
		want           string
	}{
		{"unchanged", steady, steady, "lower", 0.05, verdictHolds},
		{"8% slower against a 5% bound", steady, shift(steady, 1.08), "lower", 0.05, verdictRegression},
		{"8% slower within a 10% bound", steady, shift(steady, 1.08), "lower", 0.10, verdictSlower},
		{"2% slower within the parent's spread", steady, shift(steady, 1.02), "lower", 0.10, verdictHolds},
		{"throughput 8% lower", steady, shift(steady, 0.92), "higher", 0.05, verdictRegression},
		{"8% slower under drift, paired", drifting, shift(drifting, 1.08), "lower", 0.05, verdictRegression},
		{"unchanged under drift, paired", drifting, scatter(drifting, 1.005, 0.995), "lower", 0.05, verdictHolds},
		{"pairs disagree", steady, scatter(steady, 0.7, 1.3, 1.0), "lower", 0.05, verdictUnresolved},
		{"pairs disagree, every one worse", steady, scatter(steady, 1.05, 1.5, 1.2), "lower", 0.05, verdictWorseAll},
		{"pairs disagree, every one better", steady, scatter(steady, 0.95, 0.5, 0.8), "lower", 0.05, verdictBetterAll},
		{"throughput pairs disagree, every one worse", steady, scatter(steady, 0.95, 0.5, 0.8), "higher", 0.05, verdictWorseAll},
		{"10% faster in every pair", steady, shift(steady, 0.9), "lower", 0.05, verdictGain},
		{"too few pairs for a gain", steady[:9], shift(steady[:9], 0.9), "lower", 0.05, verdictHolds},
		{"gain within the parent's spread", steady, shift(steady, 0.995), "lower", 0.05, verdictHolds},
		{"unpaired, 8% slower against a 5% bound", steady, unpaired(shift(steady, 1.08)), "lower", 0.05, verdictRegression},
		{"unpaired, drift", drifting, unpaired(steady), "lower", 0.05, verdictUnresolved},
		{"unpaired, drift, every run better", drifting, unpaired(runsAround(50, 0.3, 10)), "lower", 0.05, verdictBetterAll},
		{"unpaired, drift, every run worse", drifting, unpaired(runsAround(200, 0.3, 10)), "lower", 0.05, verdictWorseAll},
		{"unpaired throughput, drift, every run worse", drifting, unpaired(runsAround(50, 0.3, 10)), "higher", 0.05, verdictWorseAll},
		{"too few pairs to pair", drifting[:4], shift(drifting[:4], 1.08), "lower", 0.05, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.better, c.bound); got.verdict != c.want {
			t.Errorf("%s: %s (%+v), want %s", c.name, got.verdict, got, c.want)
		}
	}

	// Nine wins in ten pairs is a gain; eight is not.
	for wins, want := range map[int]string{9: verdictGain, 8: verdictHolds} {
		change := shift(steady, 0.8)
		for i := wins; i < len(change); i++ {
			change[i].value = steady[i].value * 1.01
		}
		if got := judge(steady, change, "lower", 0.25); got.verdict != want {
			t.Errorf("%d wins of 10: %s, want %s", wins, got.verdict, want)
		}
	}
}

// TestCompareExitStatus checks compare's exit status on stored result
// files: a regression, a comparison too noisy to judge, and results from
// different environments, which it refuses.
func TestCompareExitStatus(t *testing.T) {
	env := stampEnvironment()
	other := env
	other.GOMAXPROCS++
	write := func(dir string, e envStamp, seed uint64, v float64) {
		rf := runFile{Workload: "paper-figs", Seed: seed, Env: e, Result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
		for _, d := range endToEnd {
			rf.Result.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		data, _ := json.Marshal(rf)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.json", seed)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	compare := func(parent, change string) (int, string) {
		var out, errOut bytes.Buffer
		code := runCompare([]string{"-benchmark", bench, parent, change}, &out, &errOut)
		return code, out.String() + errOut.String()
	}

	parent, slower, noisy := t.TempDir(), t.TempDir(), t.TempDir()
	for seed := uint64(1); seed <= 5; seed++ {
		write(parent, env, seed, 100+float64(seed)/10)
		write(slower, env, seed, 130+float64(seed)/10)
		write(noisy, env, seed, []float64{60, 140, 70, 130, 100}[seed-1])
	}
	if code, out := compare(parent, slower); code != exitRegression || !strings.Contains(out, verdictRegression) {
		t.Errorf("a 30%% slowdown: exit %d\n%s", code, out)
	}
	if code, out := compare(parent, noisy); code != exitUnresolved || !strings.Contains(out, verdictUnresolved) {
		t.Errorf("pairs that disagree: exit %d\n%s", code, out)
	}
	write(slower, other, 6, 130)
	if code, out := compare(parent, slower); code != exitUsage || !strings.Contains(out, "refusing") {
		t.Errorf("mixed GOMAXPROCS: exit %d\n%s", code, out)
	}
}

//go:noinline
func busyWork(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestAttributeCPU profiles a busy loop in this package and checks the
// decoder charges it to this package's frames, which the test binary names
// mobic/bench.*.
func TestAttributeCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	busyWork(300 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) == 0 {
		t.Skip("no CPU samples collected")
	}
	shares := attributeCPU(prof, "mobic/", []string{"bench"})
	if shares["bench"] < 0.5 {
		t.Errorf("busy loop got %.2f of the samples: %v", shares["bench"], shares)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestNormalizeTraceFlag(t *testing.T) {
	got := normalizeTraceFlag([]string{"--workload", "w", "--trace", "1", "-trace", "0", "-trace", "--seed", "3"})
	want := "--workload w --trace=1 -trace=0 -trace --seed 3"
	if strings.Join(got, " ") != want {
		t.Errorf("got %q, want %q", strings.Join(got, " "), want)
	}
}
