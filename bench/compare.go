package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// boundedMetric is one end_to_end entry of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles returns the three quartile cut points the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads match those computed by other tools. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(med))
}

// sample is one run's value of a metric, keyed by its seed for pairing.
type sample struct {
	seed  uint64
	value float64
}

func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.value
	}
	return out
}

// Verdicts of judge.
const (
	verdictRegression = "REGRESSION"
	verdictWorseAll   = "REGRESSION (every run worse)"
	verdictUnresolved = "UNRESOLVED"
	verdictGain       = "gain"
	verdictBetterAll  = "better (every run)"
	verdictSlower     = "slower, within bound"
	verdictHolds      = "no regression"
)

// Exit statuses of compare. Unresolved has its own, so that a gate reading
// only the status cannot take "too noisy to tell" for a pass.
const (
	exitRegression = 1
	exitUsage      = 2
	exitUnresolved = 3
)

// minPairs is how many runs paired by seed compare needs before it judges
// the per-seed ratios instead of the two sides' medians.
const minPairs = 5

// judgement is judge's reading of one metric.
type judgement struct {
	verdict string
	// delta is how much worse the change is, as a share: the median of the
	// per-seed ratios minus 1 when paired, else the medians' difference
	// over the parent's median. Negative is better.
	delta float64
	// spread is the noise the bound is held against: the per-seed ratios'
	// interquartile range over their median when paired, else the larger
	// of the two sides' spreads.
	spread float64
	pairs  int
}

// judge compares one metric's runs on the parent and on the change.
//
//   - With at least minPairs runs paired by seed it judges each pair's
//     ratio of change to parent (inverted where higher is better, so a
//     ratio above 1 is worse). Pairs run back to back see the same machine,
//     so drift in its speed that outlasts a run cancels in the ratio but
//     not between the two sides' medians. With fewer pairs it judges the
//     medians.
//   - Where the spread exceeds the bound the metric is unresolved, unless
//     every change run beats every parent run (every pair, when paired) or
//     every one is worse, which is a regression.
//   - Otherwise the change regresses when it is worse by more than the
//     bound.
//   - A gain needs at least ten pairs, the change winning at least nine
//     tenths of them (ties count for neither side), and the medians
//     differing by more than the parent's interquartile range.
//   - The same test the other way round marks a change that is slower,
//     though by less than the bound: not a regression, but reported.
func judge(parent, change []sample, better string, bound float64) judgement {
	p, c := values(parent), values(change)
	pq1, pm, pq3 := quartiles(p)
	_, cm, _ := quartiles(c)
	worse := func(cv, pv float64) float64 { return ratio(cv, pv) } // >1 means the change is worse
	if better == "higher" {
		worse = func(cv, pv float64) float64 { return ratio(pv, cv) }
	}

	bySeed := make(map[uint64]float64, len(parent))
	for _, s := range parent {
		bySeed[s.seed] = s.value
	}
	var ratios []float64
	wins, losses := 0, 0
	for _, s := range change {
		pv, ok := bySeed[s.seed]
		if !ok {
			continue
		}
		r := worse(s.value, pv)
		ratios = append(ratios, r)
		switch {
		case r < 1:
			wins++
		case r > 1:
			losses++
		}
	}

	j := judgement{pairs: len(ratios)}
	var allBetter, allWorse bool
	if j.pairs >= minPairs {
		_, rm, _ := quartiles(ratios)
		j.delta, j.spread = rm-1, spread(ratios)
		allBetter, allWorse = wins == j.pairs, losses == j.pairs
	} else {
		j.delta, j.spread = worse(cm, pm)-1, math.Max(spread(p), spread(c))
		cBest, cWorst := minOf(c), maxOf(c)
		pBest, pWorst := minOf(p), maxOf(p)
		if better == "higher" {
			cBest, cWorst, pBest, pWorst = cWorst, cBest, pWorst, pBest
		}
		allBetter, allWorse = worse(cWorst, pBest) < 1, worse(cBest, pWorst) > 1
	}
	clear := j.pairs >= 10 && math.Abs(cm-pm) > pq3-pq1
	switch {
	case j.spread > bound && allBetter:
		j.verdict = verdictBetterAll
	case j.spread > bound && allWorse:
		j.verdict = verdictWorseAll
	case j.spread > bound:
		j.verdict = verdictUnresolved
	case j.delta > bound:
		j.verdict = verdictRegression
	case clear && wins*10 >= j.pairs*9 && j.delta < 0:
		j.verdict = verdictGain
	case clear && losses*10 >= j.pairs*9 && j.delta > 0:
		j.verdict = verdictSlower
	default:
		j.verdict = verdictHolds
	}
	return j
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// loadRuns reads every untraced result file in dir, grouped by workload.
func loadRuns(dir string) (map[string][]runFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := map[string][]runFile{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !rf.Trace {
			runs[rf.Workload] = append(runs[rf.Workload], rf)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return runs, nil
}

// sameEnvironment refuses results measured under different nproc,
// GOMAXPROCS or Go versions: their numbers do not compare.
func sameEnvironment(sides ...map[string][]runFile) error {
	var first *envStamp
	for _, runs := range sides {
		for _, rs := range runs {
			for i := range rs {
				e := rs[i].Env
				if first == nil {
					first = &e
					continue
				}
				if e.NProc != first.NProc || e.GOMAXPROCS != first.GOMAXPROCS || e.GoVersion != first.GoVersion {
					return fmt.Errorf("refusing to compare results from different environments: nproc %d/%d, GOMAXPROCS %d/%d, %s/%s",
						first.NProc, e.NProc, first.GOMAXPROCS, e.GOMAXPROCS, first.GoVersion, e.GoVersion)
				}
			}
		}
	}
	return nil
}

// runCompare implements "compare PARENT_DIR CHANGE_DIR": one row per
// workload and end-to-end metric with each side's median and quartiles and
// a verdict. It exits exitRegression when any metric regressed, else
// exitUnresolved when any metric was too noisy to judge, else 0.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFile := fs.String("benchmark", "BENCHMARK.json", "the file holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return exitUsage
	}
	bf, err := readBenchmarkFile(*benchFile)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitUsage
	}
	parent, err := loadRuns(fs.Arg(0))
	var change map[string][]runFile
	if err == nil {
		change, err = loadRuns(fs.Arg(1))
	}
	if err == nil {
		err = sameEnvironment(parent, change)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitUsage
	}
	return printComparison(stdout, bf, parent, change)
}

func printComparison(w io.Writer, bf *benchmarkFile, parent, change map[string][]runFile) int {
	regressed, unresolved := false, false
	fmt.Fprintf(w, "%-11s %-15s %-6s %28s %28s %5s %8s %8s  %s\n", "workload", "metric", "unit",
		"parent median [q1, q3] (n)", "change median [q1, q3] (n)", "pairs", "worse", "spread", "verdict")
	for _, wl := range workloadNames() {
		pr, cr := parent[wl], change[wl]
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			ps, cs := metricSamples(pr, m.Name), metricSamples(cr, m.Name)
			j := judge(ps, cs, m.Better, m.Bound)
			switch j.verdict {
			case verdictRegression, verdictWorseAll:
				regressed = true
			case verdictUnresolved:
				unresolved = true
			}
			fmt.Fprintf(w, "%-11s %-15s %-6s %28s %28s %5d %+7.1f%% %7.1f%%  %s (bound %.0f%%)\n",
				wl, m.Name, m.Unit, summary(values(ps)), summary(values(cs)), j.pairs, 100*j.delta, 100*j.spread, j.verdict, 100*m.Bound)
		}
	}
	switch {
	case regressed:
		return exitRegression
	case unresolved:
		return exitUnresolved
	}
	return 0
}

func metricSamples(runs []runFile, name string) []sample {
	out := make([]sample, 0, len(runs))
	for _, r := range runs {
		out = append(out, sample{r.Seed, r.Result.Metrics[name].Value})
	}
	return out
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}
