package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mobic/internal/stats"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatchesDefinitions keeps the two in
// step, and BENCHMARK.json alone holds the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; an operation ("op") is one job on the service
// workloads, one cell replication on paper-figs and one 10-simulated-second
// scheduler chunk on mega-10k.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"goodput_ops_s", "ops/s", "higher"},
}

// engineLayers are the repository modules whose CPU share the traced run
// reports, in the order of the README's layer table. A pprof sample is
// charged to the innermost frame in one of these packages.
var engineLayers = []string{
	"sim", "mobility", "radio", "spatial", "simnet", "core", "cluster",
	"graph", "metrics", "experiment", "service", "fair", "cache", "dispatch",
}

// httpRoutes are the API routes the handler middleware times.
var httpRoutes = []string{"submit", "batch", "status", "stream"}

// peerKinds classify the coordinator's calls to its workers.
var peerKinds = []string{"submit", "status", "stream", "checkpoints", "health"}

// perLayer are the traced run's metrics. Every traced run reports all of
// them; a layer a workload never enters reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, l := range engineLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio", "lower"})
	}
	defs = append(defs,
		metricDef{"runtime.other_share", "ratio", "lower"},
		metricDef{"runtime.gc_cpu_share", "ratio", "lower"},
		metricDef{"runtime.alloc_mb", "MiB", "lower"},
		metricDef{"sim.events", "count", "lower"},
		metricDef{"mobility.generate_s", "s", "lower"},
		metricDef{"radio.rxpower_calls", "count", "lower"},
		metricDef{"radio.pass_ratio", "ratio", "higher"},
		metricDef{"simnet.beacons", "count", "lower"},
		metricDef{"simnet.deliveries", "count", "lower"},
		metricDef{"simnet.neighbor_timeouts", "count", "lower"},
		metricDef{"cluster.head_changes", "count", "lower"},
		metricDef{"tiled.planned_ticks", "count", "higher"},
		metricDef{"tiled.fallback_ticks", "count", "lower"},
		metricDef{"tiled.barrier_wait_s", "s", "lower"},
		metricDef{"experiment.cells", "count", "lower"},
		metricDef{"experiment.cell_busy_s", "s", "lower"},
		metricDef{"experiment.worker_util", "ratio", "higher"},
	)
	for _, r := range httpRoutes {
		defs = append(defs,
			metricDef{"http." + r + ".count", "count", "lower"},
			metricDef{"http." + r + ".busy_ms_p50", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"queue.wait_ms_p50", "ms", "lower"},
		metricDef{"queue.wait_ms_p99", "ms", "lower"},
		metricDef{"exec.run_ms_p50", "ms", "lower"},
		metricDef{"exec.job_busy_s", "s", "lower"},
		metricDef{"journal.syncs_per_job", "count", "lower"},
		metricDef{"journal.sync_ms_p50", "ms", "lower"},
		metricDef{"journal.sync_ms_p99", "ms", "lower"},
		metricDef{"journal.write_bytes", "bytes", "lower"},
		metricDef{"cache.hits", "count", "higher"},
		metricDef{"cache.misses", "count", "lower"},
		metricDef{"cache.hit_ratio", "ratio", "higher"},
		metricDef{"cache.hit_latency_p50_ms", "ms", "lower"},
	)
	for _, k := range peerKinds {
		defs = append(defs, metricDef{"dispatch.peer_calls." + k, "count", "lower"})
	}
	defs = append(defs,
		metricDef{"dispatch.peer_call_ms_p50", "ms", "lower"},
		metricDef{"dispatch.retries", "count", "lower"},
		metricDef{"dispatch.proxy_overhead_ms_p50", "ms", "lower"},
		metricDef{"dispatch.placement_skew", "ratio", "lower"},
		metricDef{"repl.batches", "count", "lower"},
		metricDef{"repl.bytes", "bytes", "lower"},
		metricDef{"loadgen.late_ms_p99", "ms", "lower"},
		// The traced run's own end-to-end values, from which the tracing
		// overhead is computed against an untraced run.
		metricDef{"trace.wall_s", "s", "lower"},
		metricDef{"trace.latency_p50_ms", "ms", "lower"},
	)
	return defs
}

// quantile returns the q-quantile of xs, or 0 when there are no samples:
// a per-layer metric of a layer the workload never entered reads 0.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Percentile(xs, 100*q)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0: a per-layer ratio of a layer the workload
// never entered reads 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}
