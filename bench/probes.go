package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobic/internal/mobility"
	"mobic/internal/obs"
	"mobic/internal/radio"
	"mobic/internal/service"
	"mobic/internal/sim"
)

// recorder is the benchmark's obs.Recorder. It keeps every span the program
// reports (cell and chunk spans time the engine workloads' operations, job
// spans the executor's busy time), or forwards them to spanTo when set.
// Only a counting recorder, used by the traced run, also totals counters.
type recorder struct {
	counting bool
	spanTo   *recorder
	counters [obs.NumMetrics]atomic.Int64

	mu    sync.Mutex
	spans []obsSpan
}

type obsSpan struct {
	kind       obs.SpanKind
	start, end int64
}

func (r *recorder) Enabled() bool { return true }

func (r *recorder) Add(m obs.Metric, delta int64) {
	if r.counting {
		r.counters[m].Add(delta)
	}
}

func (r *recorder) Set(obs.Metric, float64)     {}
func (r *recorder) Observe(obs.Metric, float64) {}

func (r *recorder) Span(k obs.SpanKind, start, end int64) {
	if r.spanTo != nil {
		r.spanTo.Span(k, start, end)
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, obsSpan{k, start, end})
	r.mu.Unlock()
}

// spanSeconds returns the durations, in seconds, of the spans of kind k
// that started at or after since (Unix nanoseconds).
func (r *recorder) spanSeconds(k obs.SpanKind, since int64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.kind == k && s.start >= since {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// simProbe is one simulation config's share of the traced run's engine
// counters. Every config gets its own, so concurrent sweep workers never
// contend on a counter; the trial sums them.
type simProbe struct {
	rec     recorder
	rxCalls atomic.Int64
	genNs   atomic.Int64
}

// probedModel wraps the propagation model. It counts RxPower calls when
// calls is set, and with spin > 0 busy-waits that many iterations per
// call: the injected slowdown of the sensitivity proof. RxPower takes a
// few nanoseconds, below what a clock read resolves, so radio time comes
// from the CPU profile rather than from timing calls here.
type probedModel struct {
	radio.Model
	calls *atomic.Int64
	spin  int
}

// spinSink keeps the busy-wait loop from being optimized away.
var spinSink atomic.Uint64

func (m probedModel) RxPower(txPower, d float64) float64 {
	if m.spin > 0 {
		x := uint64(d)
		for i := 0; i < m.spin; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		if x == 0 {
			spinSink.Add(1)
		}
	}
	if m.calls != nil {
		m.calls.Add(1)
	}
	return m.Model.RxPower(txPower, d)
}

// probedMobility times trajectory generation.
type probedMobility struct {
	mobility.Model
	ns *atomic.Int64
}

func (m probedMobility) Generate(n int, duration float64, streams *sim.Streams) ([]*mobility.Trajectory, error) {
	t0 := time.Now()
	trajs, err := m.Model.Generate(n, duration, streams)
	m.ns.Add(time.Since(t0).Nanoseconds())
	return trajs, err
}

// walProbe counts the journal's writes and times its fsyncs.
type walProbe struct {
	mu     sync.Mutex
	bytes  int64
	syncMs []float64
}

type probedWAL struct {
	service.WALFile
	p *walProbe
}

func (w probedWAL) Write(b []byte) (int, error) {
	n, err := w.WALFile.Write(b)
	w.p.mu.Lock()
	w.p.bytes += int64(n)
	w.p.mu.Unlock()
	return n, err
}

func (w probedWAL) Sync() error {
	t0 := time.Now()
	err := w.WALFile.Sync()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	w.p.mu.Lock()
	w.p.syncMs = append(w.p.syncMs, ms)
	w.p.mu.Unlock()
	return err
}

func (p *walProbe) wrap(f service.WALFile) service.WALFile { return probedWAL{f, p} }

// snapshot returns the byte count and fsync count so far.
func (p *walProbe) snapshot() (bytes int64, syncs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes, len(p.syncMs)
}

// syncsSince returns the fsync times recorded after the first n.
func (p *walProbe) syncsSince(n int) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.syncMs[n:]...)
}

// span is one traced interval. Spans of one job share its ID; Parent names
// the span that caused this one (empty for a root).
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Job     string `json:"job,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run writes them
// out. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

func (t *tracer) add(name string, parent int64, job string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{name, t.next, parent, job, start.UnixNano(), end.UnixNano()})
	return t.next
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// routeCall is one request a handler served.
type routeCall struct {
	route      string
	job        string
	start, end time.Time
	bytes      int64 // request body bytes (client side)
}

func (c routeCall) ms() float64 { return float64(c.end.Sub(c.start).Nanoseconds()) / 1e6 }

// httpProbe is handler middleware that times every request by route.
type httpProbe struct {
	name string // span prefix: "http" for the front handler, "worker" behind it
	tr   *tracer

	mu    sync.Mutex
	calls []routeCall
}

// classify maps a request onto the route names the metrics use.
func classify(method, path string) (route, job string) {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "submit", ""
	case method == http.MethodPost && path == "/v1/jobs:batch":
		return "batch", ""
	case strings.HasPrefix(path, "/v1/jobs/"):
		rest := strings.TrimPrefix(path, "/v1/jobs/")
		id, sub, _ := strings.Cut(rest, "/")
		switch {
		case sub == "" && method == http.MethodGet:
			return "status", id
		case sub == "stream":
			return "stream", id
		case sub == "checkpoints":
			return "checkpoints", id
		}
		return "other", id
	case path == "/readyz" || path == "/healthz" || path == "/livez":
		return "health", ""
	}
	return "other", ""
}

func (p *httpProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, job := classify(r.Method, r.URL.Path)
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if job == "" {
			// A submit names its job only in the answer.
			job = strings.TrimPrefix(w.Header().Get("Location"), "/v1/jobs/")
		}
		p.mu.Lock()
		p.calls = append(p.calls, routeCall{route: route, job: job, start: start, end: end})
		p.mu.Unlock()
		p.tr.add(p.name+"."+route, 0, job, start, end)
	})
}

// since returns the calls that started at or after t.
func (p *httpProbe) since(t time.Time) []routeCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	return callsSince(p.calls, t)
}

// transportProbe wraps an http.RoundTripper and records each call's kind
// and time to response headers.
type transportProbe struct {
	base http.RoundTripper
	tr   *tracer
	name string

	mu    sync.Mutex
	calls []routeCall
}

func (p *transportProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	route, job := classify(req.Method, req.URL.Path)
	start := time.Now()
	resp, err := p.base.RoundTrip(req)
	end := time.Now()
	p.mu.Lock()
	p.calls = append(p.calls, routeCall{route, job, start, end, max(req.ContentLength, 0)})
	p.mu.Unlock()
	p.tr.add(p.name+"."+route, 0, job, start, end)
	return resp, err
}

func (p *transportProbe) since(t time.Time) []routeCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	return callsSince(p.calls, t)
}

func callsSince(calls []routeCall, t time.Time) []routeCall {
	var out []routeCall
	for _, c := range calls {
		if !c.start.Before(t) {
			out = append(out, c)
		}
	}
	return out
}
