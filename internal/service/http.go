package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mobic/internal/experiment"
	"mobic/internal/obs"
)

// NewHandler exposes the service as a JSON HTTP API:
//
//	POST   /v1/jobs             submit a job (202, or 429 + Retry-After);
//	                            an Idempotency-Key header makes retried
//	                            submissions return the original job (200)
//	POST   /v1/jobs:batch       submit up to MaxBatchJobs specs atomically:
//	                            every spec validates and is journaled in one
//	                            WAL record, or nothing is enqueued (400/429
//	                            for the whole batch)
//	GET    /v1/jobs/{id}        job status (+ result once finished)
//	GET    /v1/jobs/{id}/stream NDJSON status stream until terminal
//	POST   /v1/jobs/{id}/restore
//	                            re-create a job under the given ID, seeded
//	                            from this worker's replica of it; it resumes
//	                            at the first incomplete cell
//	DELETE /v1/jobs/{id}        request cancellation
//	GET    /livez               liveness: 200 while the process serves
//	GET    /readyz              readiness: 503 while draining or when the
//	                            journal cannot persist records
//	GET    /healthz             alias for /readyz (readiness + queue gauges)
//	GET    /metrics             Prometheus text metrics
//
// Tenant identity comes from the X-Mobic-Tenant header (explicit name,
// wins) or the Authorization header (API key, optionally "Bearer "-
// prefixed); unauthenticated requests run as the default tenant. Over-
// quota and over-rate tenants are shed with a per-tenant 429 +
// Retry-After while other tenants keep being admitted.
func NewHandler(svc *Service) http.Handler {
	a := &api{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("POST /v1/jobs:batch", a.submitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", a.status)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", a.stream)
	mux.HandleFunc("POST /v1/jobs/{id}/restore", a.restore)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	mux.HandleFunc("POST /v1/replica/{id}", a.replicaPut)
	mux.HandleFunc("GET /v1/replica/{id}", a.replicaGet)
	mux.HandleFunc("GET /livez", a.livez)
	mux.HandleFunc("GET /readyz", a.readyz)
	mux.HandleFunc("GET /healthz", a.readyz)
	mux.HandleFunc("GET /metrics", a.metrics)
	return mux
}

type api struct {
	svc *Service
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already sent; nothing useful to do on error
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// tenant resolves the request's tenant identity for SubmitOpts.
func (a *api) tenant(r *http.Request) string {
	return a.svc.ResolveTenant(r.Header.Get("Authorization"), r.Header.Get("X-Mobic-Tenant"))
}

// admitError writes the status for a failed submit, batch or restore: 400
// for an invalid spec, 429 for a shed, 503 while shutting down, 500
// otherwise.
//
// Every shed is a *ShedError (admit is the only producer), whose
// Retry-After is the per-tenant hint: quota and rate sheds predict when
// that tenant frees up.
func (a *api) admitError(w http.ResponseWriter, err error) {
	var se *ShedError
	switch {
	case errors.Is(err, ErrInvalidSpec):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.As(err, &se):
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// admitted writes the 202 for a newly created job, or the 200 for an
// existing one returned by an idempotent replay.
func admitted(w http.ResponseWriter, job *Job, existed bool) {
	st, _, _ := job.Snapshot()
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	code := http.StatusAccepted
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// submit handles POST /v1/jobs. Backpressure contract: when the queue is
// full the request is shed with 429 and a Retry-After hint derived from the
// queue depth and the EWMA of recent job durations. An Idempotency-Key
// header makes the submission replay-safe: resubmitting the same key
// returns the original job with 200 instead of creating a duplicate, and
// the mapping survives daemon restarts via the journal.
func (a *api) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	job, existed, err := a.svc.SubmitWith(spec, SubmitOpts{
		Key:     r.Header.Get("Idempotency-Key"),
		Replica: r.Header.Get("X-Mobic-Replica"),
		Tenant:  a.tenant(r),
	})
	if err != nil {
		a.admitError(w, err)
		return
	}
	admitted(w, job, existed)
}

// batchRequest is the body of POST /v1/jobs:batch.
type batchRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// batchResponse mirrors the request: one Status per submitted spec, in
// order.
type batchResponse struct {
	Jobs []Status `json:"jobs"`
}

// decodeBatch parses a batch body. Factored out of the handler so the
// fuzz target exercises exactly the wire decoder.
func decodeBatch(r io.Reader) (batchRequest, error) {
	var req batchRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return batchRequest{}, err
	}
	return req, nil
}

// submitBatch handles POST /v1/jobs:batch: all-or-none submission of up
// to MaxBatchJobs specs. One invalid spec 400s the whole batch (naming
// its index); admission is a single decision for the batch, so a 429
// sheds every spec together. On 202 the response lists one Status per
// spec, in request order.
func (a *api) submitBatch(w http.ResponseWriter, r *http.Request) {
	req, err := decodeBatch(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	jobs, err := a.svc.SubmitBatch(req.Jobs, SubmitOpts{
		Replica: r.Header.Get("X-Mobic-Replica"),
		Tenant:  a.tenant(r),
	})
	if err != nil {
		a.admitError(w, err)
		return
	}
	resp := batchResponse{Jobs: make([]Status, len(jobs))}
	for i, job := range jobs {
		resp.Jobs[i], _, _ = job.Snapshot()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// job resolves the {id} path value, writing 404 on a miss.
func (a *api) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := a.svc.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q (it may have expired)", id)
		return nil, false
	}
	return job, true
}

func (a *api) status(w http.ResponseWriter, r *http.Request) {
	job, ok := a.job(w, r)
	if !ok {
		return
	}
	st, _, _ := job.Snapshot()
	writeJSON(w, http.StatusOK, st)
}

func (a *api) cancel(w http.ResponseWriter, r *http.Request) {
	job, ok := a.job(w, r)
	if !ok {
		return
	}
	job.RequestCancel()
	st, _, _ := job.Snapshot()
	writeJSON(w, http.StatusOK, st)
}

// restoreRequest is the body of POST /v1/jobs/{id}/restore; the path
// carries the job's ID.
type restoreRequest struct {
	Spec   JobSpec `json:"spec"`
	Key    string  `json:"key,omitempty"`
	Tenant string  `json:"tenant,omitempty"`
}

// restore handles POST /v1/jobs/{id}/restore: the failover entry point. A
// job is created under the caller-chosen ID, seeded with the checkpoint
// prefix this worker's replica holds for it, and enqueued; it resumes at
// the first incomplete cell. The body carries no checkpoints, and unknown
// fields are refused. Replaying the same restore is idempotent (200 with
// the existing job). Backpressure matches submit: 429 + Retry-After.
func (a *api) restore(w http.ResponseWriter, r *http.Request) {
	var req restoreRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding restore request: %v", err)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = a.tenant(r)
	}
	job, existed, err := a.svc.Restore(r.PathValue("id"), req.Spec, SubmitOpts{
		Key:     req.Key,
		Replica: r.Header.Get("X-Mobic-Replica"),
		Tenant:  tenant,
	})
	if err != nil {
		a.admitError(w, err)
		return
	}
	admitted(w, job, existed)
}

// replicaPut handles POST /v1/replica/{id}: one proactive-replication batch
// (MOBICREPL1 magic + CRC-framed records) from a ring predecessor. The
// response acks the record count now held, which the sender uses as its
// high-water mark. Torn or corrupt frames end the batch's valid prefix
// exactly like WAL replay; a batch with no intact submit record is a 400.
func (a *api) replicaPut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading replica batch: %v", err)
		return
	}
	n, err := a.svc.Replicas().Apply(r.PathValue("id"), data, time.Now())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"records": n})
}

// replicaView is the body of GET /v1/replica/{id}.
type replicaView struct {
	ID    string                 `json:"id"`
	Spec  JobSpec                `json:"spec"`
	Key   string                 `json:"key,omitempty"`
	Cells []experiment.CellStats `json:"cells"`
}

// replicaGet handles GET /v1/replica/{id}: the replica's current view, the
// completed-cell prefix a failover restore would resume from. Used by
// tests and operators to observe replication lag.
func (a *api) replicaGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spec, key, cps, ok := a.svc.Replicas().Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no replica for job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, replicaView{ID: id, Spec: spec, Key: key, Cells: cps})
}

// stream handles GET /v1/jobs/{id}/stream: one NDJSON StreamEvent line
// per state transition and completed cell, flushed immediately, ending
// with the "result" event (which carries the final status and payload).
// Clients just read lines until EOF. The event log is replayed from the
// beginning, so attaching late still yields the full history.
func (a *api) stream(w http.ResponseWriter, r *http.Request) {
	job, ok := a.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Push the response header out immediately: a client attaching to a
	// queued job would otherwise see its GET hang in the transport until
	// the first event happens to fill the write buffer.
	if flusher != nil {
		flusher.Flush()
	}

	enc := json.NewEncoder(w)
	job.Follow(r.Context(), func(ev StreamEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false // client went away
		}
		// Flush per event, not per batch: batching delayed every line but
		// the last in a burst, and a burst ending in "result" returned
		// before flushing at all, leaving the final events stuck in the
		// buffer until the handler's implicit close.
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
}

// livez is the liveness probe: 200 as long as the process can serve HTTP
// at all. It deliberately checks nothing else — a draining daemon or a
// full disk is degraded, not dead, and restarting it would lose in-flight
// work. Orchestrators should restart on /livez failures and merely stop
// routing on /readyz failures.
func (a *api) livez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// readyz is the readiness probe (also served at /healthz for backwards
// compatibility): 503 with "ready": false while the service is draining or
// its journal cannot persist records — accepting a job that cannot be made
// durable would silently void the crash-recovery guarantee. The body keeps
// the load gauges an external balancer needs for routing decisions.
func (a *api) readyz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status        string `json:"status"`
		Ready         bool   `json:"ready"`
		Reason        string `json:"reason,omitempty"`
		QueueDepth    int    `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
		StoredJobs    int    `json:"stored_jobs"`
	}
	ready, reason := a.svc.Ready()
	h := health{
		Status:        "ok",
		Ready:         ready,
		Reason:        reason,
		QueueDepth:    a.svc.QueueDepth(),
		QueueCapacity: a.svc.QueueCapacity(),
		StoredJobs:    a.svc.StoredJobs(),
	}
	code := http.StatusOK
	if !ready {
		h.Status = reason
		if a.svc.Draining() {
			h.Status = "draining"
		}
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (a *api) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	e := obs.NewEncoder(w)
	a.svc.Metrics().Encode(e, a.svc.QueueDepth(), a.svc.StoredJobs())
	// Engine/experiment telemetry families (mobic_sim_*, mobic_net_*,
	// mobic_experiment_*) follow when a Registry is installed.
	e.Recorder(a.svc.Observability())
	// Per-tenant admission/fairness families (mobicd_tenant_*).
	a.svc.TenantMetrics().Encode(e)
}
