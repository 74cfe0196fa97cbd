// Command bench is the repository benchmark. It drives four workloads
// through the public APIs of experiment, simnet, service and dispatch,
// checks their outputs, and prints every end-to-end metric; a traced run
// prints the per-layer metrics instead. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [flags]                  all workloads, untraced
//	bash bench/run.sh -trace [flags]           all workloads, plus a traced run each
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// workloads maps each workload name to the function that runs it, in run
// order.
var workloads = []struct {
	name string
	run  func(context.Context, *trial) (*measurement, error)
}{
	{"paper-figs", runPaperFigs},
	{"mega-10k", runMega},
	{"svc-mixed", runSvcMixed},
	{"cluster-2w", runCluster},
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all, each in its own process)")
	seed := fs.Uint64("seed", 1, "workload seed: scenario seeds and the arrival and mix stream")
	seconds := fs.Float64("seconds", 20, "measured seconds of the service workloads; sizes their load")
	trace := fs.Bool("trace", false, "report per-layer metrics instead of end-to-end ones")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for trace files and the service workloads' data")
	results := fs.String("results", "", "also write each run's result, stamped with its environment, into this directory")
	spin := fs.Int("spin", 0, "busy-wait iterations added to every RxPower call (the sensitivity proof's injected slowdown)")
	if err := fs.Parse(normalizeTraceFlag(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, outDir: *outDir, spin: *spin}
	if *workload == "" {
		return runAll(opts, *results, stdout, stderr)
	}
	res, _, err := runOne(context.Background(), opts, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", opts.workload, err)
		return 1
	}
	if *results != "" {
		if err := writeResult(*results, opts, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// normalizeTraceFlag rewrites "-trace 0" and "--trace 1" into the one-token
// form the flag package expects of a boolean flag.
func normalizeTraceFlag(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// runOne runs one workload in this process, prints its metrics as
// "<workload> <metric> <value> <unit>" lines, and returns its result.
func runOne(ctx context.Context, opts options, stdout, stderr io.Writer) (*result, map[string]any, error) {
	var drive func(context.Context, *trial) (*measurement, error)
	for _, w := range workloads {
		if w.name == opts.workload {
			drive = w.run
		}
	}
	if drive == nil {
		return nil, nil, fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	s := newTrial(opts)
	m, err := drive(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	if err := s.finish(); err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	m.e2e["peak_rss_mb"] = rss
	m.layers["trace.wall_s"] = m.e2e["wall_s"]
	m.layers["trace.latency_p50_ms"] = m.e2e["latency_p50_ms"]
	for _, p := range m.problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", opts.workload, p)
	}

	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, m.e2e
	if opts.trace {
		defs, values = perLayer, m.layers
	}
	for _, d := range defs {
		v := values[d.Name]
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(stdout, "%s %s %v %s\n", opts.workload, d.Name, v, d.Unit)
	}
	return res, m.outputs, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll runs every workload in a fresh process of its own. With -trace
// each workload also gets a traced run, and the tracing overhead is the
// traced run's wall_s (engine workloads) or latency_p50_ms (service
// workloads) over the untraced one's, minus 1.
func runAll(opts options, results string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		runs := []bool{false}
		if opts.trace {
			runs = append(runs, true)
		}
		var plain, traced *result
		for _, tr := range runs {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(opts.seed), "-seconds", fmt.Sprint(opts.seconds),
				fmt.Sprintf("-trace=%t", tr), "-outdir", opts.outDir, "-spin", fmt.Sprint(opts.spin)}
			if results != "" {
				args = append(args, "-results", results)
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, l := range lines[:len(lines)-1] {
				fmt.Fprintln(stdout, l)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || runErr != nil {
				fmt.Fprintf(stderr, "bench: %s (trace=%t) failed: %v\n", w.name, tr, runErr)
				code = 1
				continue
			}
			if tr {
				traced = &res
			} else {
				plain = &res
			}
		}
		if plain != nil && traced != nil {
			key := "latency_p50_ms"
			if w.name == "paper-figs" || w.name == "mega-10k" {
				key = "wall_s"
			}
			overhead := ratio(traced.Metrics["trace."+key].Value, plain.Metrics[key].Value) - 1
			fmt.Fprintf(stdout, "%s trace.overhead %v ratio\n", w.name, overhead)
		}
	}
	return code
}

// envStamp records where a result was measured. compare refuses to compare
// results whose nproc, GOMAXPROCS or Go version differ.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
}

func stampEnvironment() envStamp {
	e := envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Revision:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Revision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		e.Revision += dirty
	}
	return e
}

// runFile is one stored result.
type runFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    bool     `json:"trace"`
	Spin     int      `json:"spin,omitempty"`
	Env      envStamp `json:"env"`
	Result   result   `json:"result"`
}

func writeResult(dir string, opts options, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(runFile{opts.workload, opts.seed, opts.trace, opts.spin, stampEnvironment(), *res}, "", "  ")
	if err != nil {
		return err
	}
	tr := 0
	if opts.trace {
		tr = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", opts.workload, opts.seed, tr)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
