package service

import (
	"sync"
	"sync/atomic"

	"mobic/internal/obs"
	"mobic/internal/stats"
)

// latencyBounds are the job-latency histogram's bucket bounds: 24
// half-second buckets up to 12 s. Most trimmed jobs land well inside;
// full-fidelity 900 s sweeps show up in the +Inf bucket.
var latencyBounds = []float64{
	0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6,
	6.5, 7, 7.5, 8, 8.5, 9, 9.5, 10, 10.5, 11, 11.5, 12,
}

// EWMAAlpha weighs the newest job duration in the moving average behind
// the 429 Retry-After hint; ~0.2 remembers the last handful of jobs. The
// coordinator smooths its cluster-wide hint with the same factor.
const EWMAAlpha = 0.2

// Metrics aggregates service observability counters, exposed by
// GET /metrics in Prometheus text format.
type Metrics struct {
	submitted atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	retried   atomic.Uint64
	poisoned  atomic.Uint64
	inFlight  atomic.Int64

	latency *obs.Hist

	mu   sync.Mutex
	ewma *stats.EWMA // mean job duration, seconds
}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	return &Metrics{latency: obs.NewHist(latencyBounds), ewma: stats.NewEWMA(EWMAAlpha)}
}

// ObserveLatency records one finished job's wall-clock seconds.
func (m *Metrics) ObserveLatency(seconds float64) {
	m.latency.Observe(seconds)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ewma.Update(seconds)
}

// LatencyEWMA returns the exponentially weighted mean job duration in
// seconds, or 0 before any job has finished.
func (m *Metrics) LatencyEWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewma.Value()
}

// Encode writes the service families. queueDepth and stored are
// point-in-time gauges supplied by the service.
func (m *Metrics) Encode(e *obs.Encoder, queueDepth, stored int) {
	for _, f := range []struct {
		name, help string
		kind       obs.Kind
		value      int64
	}{
		{"mobicd_jobs_submitted_total", "Jobs accepted into the queue.", obs.Counter, int64(m.submitted.Load())},
		{"mobicd_jobs_rejected_total", "Submissions shed with 429 because the queue was full.", obs.Counter, int64(m.rejected.Load())},
		{"mobicd_jobs_completed_total", "Jobs finished successfully.", obs.Counter, int64(m.completed.Load())},
		{"mobicd_jobs_failed_total", "Jobs finished with an error (timeouts included).", obs.Counter, int64(m.failed.Load())},
		{"mobicd_jobs_canceled_total", "Jobs canceled by callers or shutdown.", obs.Counter, int64(m.canceled.Load())},
		{"mobicd_jobs_retried_total", "Failed attempts re-queued under the retry policy.", obs.Counter, int64(m.retried.Load())},
		{"mobicd_jobs_poisoned_total", "Jobs quarantined after exhausting Retry.MaxAttempts.", obs.Counter, int64(m.poisoned.Load())},
		{"mobicd_queue_depth", "Jobs waiting in the FIFO queue.", obs.Gauge, int64(queueDepth)},
		{"mobicd_jobs_in_flight", "Jobs currently executing on workers.", obs.Gauge, m.inFlight.Load()},
		{"mobicd_jobs_stored", "Jobs held in the store (all states, pre-TTL).", obs.Gauge, int64(stored)},
	} {
		e.Family(f.name, f.help, f.kind)
		e.Int(f.name, f.value)
	}
	e.Hist("mobicd_job_latency_seconds", "Wall-clock latency of finished jobs.", m.latency)
}
