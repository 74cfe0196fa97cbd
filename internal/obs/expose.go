package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync/atomic"
)

// kindNames maps Kind to its Prometheus TYPE keyword.
var kindNames = [...]string{Counter: "counter", Gauge: "gauge", Histogram: "histogram"}

// Encoder writes Prometheus text exposition (format 0.0.4). It is the one
// writer of HELP/TYPE lines and sample lines behind every /metrics handler:
// each handler wraps its response in an Encoder and hands it to the
// families it serves. After the first write error, later calls write
// nothing.
type Encoder struct {
	w   io.Writer
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

func (e *Encoder) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// Family writes the HELP and TYPE lines that open a family; its samples
// follow.
func (e *Encoder) Family(name, help string, k Kind) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, kindNames[k])
}

// Int writes one integer sample. labels alternate label names and values.
func (e *Encoder) Int(name string, v int64, labels ...string) {
	e.printf("%s%s %d\n", name, labelSet(labels), v)
}

// Float writes one float sample. labels alternate label names and values.
func (e *Encoder) Float(name string, v float64, labels ...string) {
	e.printf("%s%s %g\n", name, labelSet(labels), v)
}

// Hist writes a whole histogram family: header, cumulative buckets, sum
// and count.
func (e *Encoder) Hist(name, help string, h *Hist) {
	e.Family(name, help, Histogram)
	var cum int64
	for i, hi := range h.bounds {
		cum += h.counts[i].Load()
		e.Int(name+"_bucket", cum, "le", fmt.Sprintf("%g", hi))
	}
	cum += h.counts[len(h.bounds)].Load()
	e.Int(name+"_bucket", cum, "le", "+Inf")
	e.Float(name+"_sum", math.Float64frombits(h.sumBit.Load()))
	e.Int(name+"_count", cum)
}

// Recorder writes every engine family of rec when it is a *Registry. Any
// other recorder (Nop, a benchmark's tally) keeps nothing to expose.
func (e *Encoder) Recorder(rec Recorder) {
	r, ok := rec.(*Registry)
	if !ok {
		return
	}
	for m := Metric(0); m < NumMetrics; m++ {
		d := defs[m]
		switch d.Kind {
		case Counter:
			e.Family(d.Name, d.Help, Counter)
			e.Int(d.Name, r.Counter(m))
		case Gauge:
			e.Family(d.Name, d.Help, Gauge)
			e.Float(d.Name, r.Gauge(m))
		case Histogram:
			e.Hist(d.Name, d.Help, r.hists[m])
		}
	}
}

// labelSet renders name/value pairs as {a="x",b="y"}, or "" for none.
func labelSet(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Hist is a fixed-bucket concurrent histogram. Each family's upper bounds
// are fixed data chosen by its owner; all state is allocated up front, so
// Observe is a binary search plus two atomics, with no lock.
type Hist struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, then the +Inf overflow
	sumBit atomic.Uint64  // float64 bits of the running sum
}

// NewHist returns an empty histogram over the ascending upper bounds.
func NewHist(bounds []float64) *Hist {
	return &Hist{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample in the first bucket whose bound is >= v.
func (h *Hist) Observe(v float64) {
	i, _ := slices.BinarySearch(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBit.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBit.CompareAndSwap(old, next) {
			return
		}
	}
}
