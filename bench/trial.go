package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"mobic/internal/obs"
	"mobic/internal/radio"
	"mobic/internal/simnet"
)

// options select one workload run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// outDir receives the traced run's span file and the service
	// workloads' data directories (removed when the run ends).
	outDir string
	// spin busy-waits this many iterations per RxPower call: the injected
	// delivery-path slowdown of the sensitivity proof. 0 in real runs.
	spin int
	// tiny shrinks every workload to smoke-test size.
	tiny bool
}

// measurement is what a workload reports.
type measurement struct {
	attempted int
	failed    int
	// problems explains each failed operation (printed to stderr).
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	// outputs are the values pinned in testdata (engine workloads only).
	outputs map[string]any
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// trial carries one workload run's probes. The untraced run installs only what
// its end-to-end metrics need; the traced run adds per-simulation counters
// and model wrappers, a CPU profile and the span tracer.
type trial struct {
	opts options
	rec  *recorder // spans, and in the traced run the service-level counters
	tr   *tracer

	mu   sync.Mutex
	sims []*simProbe

	start  time.Time
	tally0 tally
	rt0    []metrics.Sample
	cpu    bytes.Buffer
}

func newTrial(opts options) *trial {
	s := &trial{opts: opts, rec: &recorder{counting: opts.trace}}
	if opts.trace {
		s.tr = &tracer{}
	}
	return s
}

// tally is a snapshot of every counter the traced run keeps.
type tally struct {
	counters [obs.NumMetrics]int64
	rxCalls  int64
	genNs    int64
}

func (s *trial) tally() tally {
	var t tally
	add := func(r *recorder) {
		for i := range t.counters {
			t.counters[i] += r.counters[i].Load()
		}
	}
	add(s.rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.sims {
		add(&p.rec)
		t.rxCalls += p.rxCalls.Load()
		t.genNs += p.genNs.Load()
	}
	return t
}

// mutate installs the propagation and mobility wrappers and, traced, the
// config's own counting recorder, when anything needs them.
func (s *trial) mutate(cfg *simnet.Config) {
	if !s.opts.trace && s.opts.spin == 0 {
		return
	}
	prop := cfg.Propagation
	if prop == nil {
		prop = radio.NewTwoRayGround()
	}
	pm := probedModel{Model: prop, spin: s.opts.spin}
	if s.opts.trace {
		p := &simProbe{rec: recorder{counting: true, spanTo: s.rec}}
		s.mu.Lock()
		s.sims = append(s.sims, p)
		s.mu.Unlock()
		pm.calls = &p.rxCalls
		cfg.Mobility = probedMobility{cfg.Mobility, &p.genNs}
		cfg.Obs = &p.rec
	}
	cfg.Propagation = pm
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return samples
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// beginMeasure marks the start of the measured phase: counters are
// reported as differences from here, and the traced run starts its CPU
// profile.
func (s *trial) beginMeasure() error {
	s.start = time.Now()
	if !s.opts.trace {
		return nil
	}
	s.tally0 = s.tally()
	s.rt0 = readRuntime()
	return pprof.StartCPUProfile(&s.cpu)
}

// endMeasure stops the traced run's profile and fills the engine and
// runtime per-layer metrics.
func (s *trial) endMeasure(m *measurement) error {
	if !s.opts.trace {
		return nil
	}
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	d := func(i int) float64 { return sampleValue(rt1[i]) - sampleValue(s.rt0[i]) }
	m.layers["runtime.gc_cpu_share"] = ratio(d(0), d(1)-d(2))
	m.layers["runtime.alloc_mb"] = d(3) / (1 << 20)

	prof, err := parseProfile(s.cpu.Bytes())
	if err != nil {
		return err
	}
	shares := attributeCPU(prof, "mobic/internal/", engineLayers)
	for _, l := range engineLayers {
		m.layers[l+".cpu_share"] = shares[l]
	}
	m.layers["runtime.other_share"] = shares["runtime.other"]

	t := s.tally()
	delta := func(k obs.Metric) float64 { return float64(t.counters[k] - s.tally0.counters[k]) }
	calls := float64(t.rxCalls - s.tally0.rxCalls)
	m.layers["sim.events"] = delta(obs.SimEventsFired)
	m.layers["mobility.generate_s"] = float64(t.genNs-s.tally0.genNs) / 1e9
	m.layers["radio.rxpower_calls"] = calls
	m.layers["radio.pass_ratio"] = ratio(delta(obs.NetDeliveries), calls)
	m.layers["simnet.beacons"] = delta(obs.NetBeaconsSent)
	m.layers["simnet.deliveries"] = delta(obs.NetDeliveries)
	m.layers["simnet.neighbor_timeouts"] = delta(obs.NetNeighborTimeouts)
	m.layers["cluster.head_changes"] = delta(obs.NetHeadChanges)
	m.layers["tiled.planned_ticks"] = delta(obs.TilePlannedTicks)
	m.layers["tiled.fallback_ticks"] = delta(obs.TileFallbackTicks)
	m.layers["tiled.barrier_wait_s"] = delta(obs.TileBarrierWaitNanos) / 1e9
	hits, misses := delta(obs.CacheHits), delta(obs.CacheMisses)
	m.layers["cache.hits"] = hits
	m.layers["cache.misses"] = misses
	m.layers["cache.hit_ratio"] = ratio(hits, hits+misses)
	m.layers["dispatch.retries"] = delta(obs.DispatchRetries)
	return nil
}

// engineSpans records the recorder's cell and chunk spans under parent.
func (s *trial) engineSpans(parent int64, since int64) {
	if s.tr == nil {
		return
	}
	s.rec.mu.Lock()
	spans := append([]obsSpan(nil), s.rec.spans...)
	s.rec.mu.Unlock()
	for _, sp := range spans {
		if sp.start >= since {
			s.tr.add(sp.kind.String(), parent, "", time.Unix(0, sp.start), time.Unix(0, sp.end))
		}
	}
}

// finish writes the traced run's spans.
func (s *trial) finish() error {
	if s.tr == nil {
		return nil
	}
	if err := os.MkdirAll(s.opts.outDir, 0o755); err != nil {
		return err
	}
	return s.tr.write(filepath.Join(s.opts.outDir, "trace-"+s.opts.workload+".json"))
}

// medianSetup runs setup reps times, after a collection each, and returns
// the median duration. setup tears down what an earlier rep built; the
// measured phase uses what the last rep built.
func medianSetup(reps int, setup func() (time.Duration, error)) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}
