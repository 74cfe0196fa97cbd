package obs

import (
	"math"
	"sync/atomic"
)

// histBounds are the bucket bounds of the Histogram-kind metrics:
// exponential coverage from 10 ms to ~5 min, which spans a trimmed smoke
// cell through a full-fidelity 900 s replication.
var histBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// spanRingSize bounds the sampled-span window. Power of two so the write
// cursor wraps with a mask.
const spanRingSize = 256

// spanSampleEvery keeps one span in spanSampleEvery for the high-frequency
// kinds; the ring then covers a usefully long window instead of the last few
// milliseconds of scheduler chunks.
const spanSampleEvery = 16

// SpanRecord is one sampled wall-clock region held in the registry's ring.
type SpanRecord struct {
	// Kind names the instrumented region.
	Kind string `json:"kind"`
	// StartUnixNanos and EndUnixNanos bound the region in wall time.
	StartUnixNanos int64 `json:"start_unix_nanos"`
	// EndUnixNanos is the region's end timestamp.
	EndUnixNanos int64 `json:"end_unix_nanos"`
	// Seconds is the region's duration.
	Seconds float64 `json:"seconds"`
}

// Registry is the aggregating Recorder behind mobicd's /metrics: dense
// atomic arrays for counters and gauges, preallocated fixed-bucket
// histograms, and a sampled span ring. Every record path is lock- and
// allocation-free, so the engine's zero-alloc steady state holds with a
// Registry installed, not just with Nop.
type Registry struct {
	counters [NumMetrics]atomic.Int64
	gauges   [NumMetrics]atomic.Uint64 // float64 bits
	hists    [NumMetrics]*Hist

	spanSeq  [NumSpanKinds]atomic.Uint64
	spanCur  atomic.Uint64
	spanLen  atomic.Uint64
	spanRing [spanRingSize]struct {
		kind       SpanKind
		start, end int64
	}
}

// NewRegistry returns an empty registry with histogram storage preallocated
// for every Histogram-kind metric.
func NewRegistry() *Registry {
	r := &Registry{}
	for m := Metric(0); m < NumMetrics; m++ {
		if defs[m].Kind == Histogram {
			r.hists[m] = NewHist(histBounds)
		}
	}
	return r
}

// Enabled reports true.
func (r *Registry) Enabled() bool { return true }

// Add increments counter m by delta.
func (r *Registry) Add(m Metric, delta int64) {
	r.counters[m].Add(delta)
}

// Set updates gauge m.
func (r *Registry) Set(m Metric, v float64) {
	r.gauges[m].Store(math.Float64bits(v))
}

// Observe records one histogram sample; it is a no-op for non-Histogram
// metrics.
func (r *Registry) Observe(m Metric, v float64) {
	if h := r.hists[m]; h != nil {
		h.Observe(v)
	}
}

// Span records a wall-clock region into the sampled ring: one region in
// spanSampleEvery per kind is kept, overwriting the oldest slot. Torn
// reads of a slot being overwritten are tolerated — spans are diagnostics,
// not accounting.
func (r *Registry) Span(k SpanKind, startNanos, endNanos int64) {
	if k >= NumSpanKinds {
		return
	}
	if r.spanSeq[k].Add(1)%spanSampleEvery != 1 {
		return
	}
	i := (r.spanCur.Add(1) - 1) % spanRingSize
	slot := &r.spanRing[i]
	slot.kind, slot.start, slot.end = k, startNanos, endNanos
	if n := r.spanLen.Load(); n < spanRingSize {
		r.spanLen.Store(n + 1)
	}
}

// Counter returns the current value of counter m.
func (r *Registry) Counter(m Metric) int64 { return r.counters[m].Load() }

// Gauge returns the current value of gauge m.
func (r *Registry) Gauge(m Metric) float64 {
	return math.Float64frombits(r.gauges[m].Load())
}

// Spans returns a copy of the sampled span window, oldest first (best
// effort under concurrent writes).
func (r *Registry) Spans() []SpanRecord {
	n := r.spanLen.Load()
	if n > spanRingSize {
		n = spanRingSize
	}
	cur := r.spanCur.Load()
	out := make([]SpanRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		idx := i
		if n == spanRingSize {
			idx = (cur + i) % spanRingSize
		}
		s := r.spanRing[idx]
		out = append(out, SpanRecord{
			Kind:           s.kind.String(),
			StartUnixNanos: s.start,
			EndUnixNanos:   s.end,
			Seconds:        float64(s.end-s.start) / 1e9,
		})
	}
	return out
}
