package obs

import (
	"errors"
	"strings"
	"testing"
)

// TestNopAllocationFree pins the zero-cost contract of the disabled path:
// every Recorder method on Nop must be allocation-free, because the engine
// hot loop calls them per event with the default recorder installed.
func TestNopAllocationFree(t *testing.T) {
	var rec Recorder = Nop{}
	allocs := testing.AllocsPerRun(100, func() {
		rec.Add(SimEventsFired, 1)
		rec.Set(SimHeapDepth, 42)
		rec.Observe(ExpCellSeconds, 1.5)
		rec.Span(SpanSimChunk, 0, 1000)
		if rec.Enabled() {
			t.Fatal("Nop must report disabled")
		}
	})
	if allocs != 0 {
		t.Errorf("Nop recorder allocates %.1f objects per round, want 0", allocs)
	}
}

// TestRegistryAllocationFree pins the same contract for the enabled path:
// an installed Registry must not reintroduce allocations on the record
// side, or instrumented daemons would lose the engine's zero-alloc steady
// state the moment telemetry is turned on.
func TestRegistryAllocationFree(t *testing.T) {
	var rec Recorder = NewRegistry()
	allocs := testing.AllocsPerRun(100, func() {
		rec.Add(NetBeaconsSent, 3)
		rec.Set(ExpProgress, 0.5)
		rec.Observe(ExpCellSeconds, 0.25)
		rec.Span(SpanCell, 100, 2100)
	})
	if allocs != 0 {
		t.Errorf("Registry recording allocates %.1f objects per round, want 0", allocs)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Add(SimEventsFired, 5)
	r.Add(SimEventsFired, 2)
	r.Set(SimHeapDepth, 17)
	r.Set(SimHeapDepth, 9)
	if got := r.Counter(SimEventsFired); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if got := r.Gauge(SimHeapDepth); got != 9 {
		t.Errorf("gauge = %g, want 9 (last write wins)", got)
	}
	if !r.Enabled() {
		t.Error("Registry must report enabled")
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	for _, v := range []float64{0.005, 0.3, 4, 1000} {
		r.Observe(ExpCellSeconds, v)
	}
	// Observing a non-histogram metric must be a safe no-op.
	r.Observe(SimEventsFired, 1)

	var b strings.Builder
	NewEncoder(&b).Recorder(r)
	out := b.String()
	for _, want := range []string{
		`mobic_experiment_cell_seconds_bucket{le="+Inf"} 4`,
		"mobic_experiment_cell_seconds_count 4",
		"mobic_experiment_cell_seconds_sum 1004.305",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestWriteToExposesEveryFamily checks the Prometheus contract the /metrics
// handlers depend on: every defined metric appears with HELP and TYPE lines
// and a non-empty unique name.
func TestWriteToExposesEveryFamily(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	NewEncoder(&b).Recorder(r)
	out := b.String()
	seen := map[string]bool{}
	for m := Metric(0); m < NumMetrics; m++ {
		d := Definition(m)
		if d.Name == "" || d.Help == "" {
			t.Fatalf("metric %d has empty metadata", m)
		}
		if seen[d.Name] {
			t.Errorf("duplicate family name %q", d.Name)
		}
		seen[d.Name] = true
		if !strings.Contains(out, "# HELP "+d.Name+" "+d.Help) {
			t.Errorf("missing HELP for %s", d.Name)
		}
		if !strings.Contains(out, "# TYPE "+d.Name+" ") {
			t.Errorf("missing TYPE for %s", d.Name)
		}
	}
}

func TestSpanSamplingAndRing(t *testing.T) {
	r := NewRegistry()
	// First span of each kind is always kept (seq%N == 1).
	r.Span(SpanJob, 0, 2e9)
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Kind != "job" || spans[0].Seconds != 2 {
		t.Errorf("span = %+v, want kind=job seconds=2", spans[0])
	}
	// High-frequency spans are sampled down ~spanSampleEvery×, and the
	// ring stays bounded no matter how many arrive.
	for i := 0; i < 10*spanRingSize*spanSampleEvery; i++ {
		r.Span(SpanSimChunk, int64(i), int64(i+1))
	}
	spans = r.Spans()
	if len(spans) > spanRingSize {
		t.Errorf("ring holds %d spans, want <= %d", len(spans), spanRingSize)
	}
	// Out-of-range kinds are discarded, not stored.
	r.Span(NumSpanKinds, 0, 1)
	if SpanKind(200).String() != "unknown" {
		t.Error("out-of-range SpanKind should stringify as unknown")
	}
}

// TestEncoderHistAndLabels pins the shared encoder's sample syntax: le
// buckets are cumulative with v <= bound (below-range samples land in the
// first bucket, above-range ones only in +Inf), label values are quoted,
// and nothing is written after the first write error.
func TestEncoderHistAndLabels(t *testing.T) {
	h := NewHist([]float64{1, 2})
	for _, v := range []float64{-1, 0.5, 1, 1.5, 2, 3} {
		h.Observe(v)
	}
	var b strings.Builder
	e := NewEncoder(&b)
	e.Hist("x_seconds", "X.", h)
	e.Int("y", 7, "peer", `a"b`)
	e.Float("z", 0.25, "tenant", "t", "zone", "q")
	want := `# HELP x_seconds X.
# TYPE x_seconds histogram
x_seconds_bucket{le="1"} 3
x_seconds_bucket{le="2"} 5
x_seconds_bucket{le="+Inf"} 6
x_seconds_sum 7
x_seconds_count 6
y{peer="a\"b"} 7
z{tenant="t",zone="q"} 0.25
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	var fw failWriter
	fail := NewEncoder(&fw)
	fail.Family("a", "A.", Counter)
	fail.Int("a", 1)
	if fw.calls != 1 {
		t.Errorf("%d writes after a failed write, want none", fw.calls-1)
	}
}

type failWriter struct{ calls int }

func (f *failWriter) Write([]byte) (int, error) {
	f.calls++
	return 0, errors.New("closed")
}
