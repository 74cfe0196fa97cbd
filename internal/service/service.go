package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mobic/internal/cache"
	"mobic/internal/experiment"
	"mobic/internal/fair"
	"mobic/internal/obs"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is returned by Submit when the bounded queue cannot
	// accept another job; callers should retry after backing off (429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrShuttingDown is returned by Submit once Shutdown began (503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrJobPanicked tags executor panics caught by the worker's recover;
	// the panic value and stack are preserved in the job's error.
	ErrJobPanicked = errors.New("service: job panicked")
)

// ExecuteFunc runs one job spec; the default is JobSpec.run on the real
// simulator. Tests and benchmarks substitute stubs. The runner passed in
// carries the service-wide defaults plus, for sweep jobs, the
// checkpoint/resume wiring (StartCell, Resume, Checkpoint).
type ExecuteFunc func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error)

// RetryPolicy caps how often a failing job is re-executed. Attempt counts
// are journaled, so they survive daemon restarts.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions a job may consume,
	// the first run included. <= 1 disables retries: any failure is
	// terminal StateFailed. With MaxAttempts > 1, a job whose last
	// allowed attempt also fails is quarantined as StatePoisoned.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 500 ms).
	// It doubles per failed attempt, is capped at MaxDelay (default
	// 30 s), and gets ±25% jitter so a burst of failures doesn't
	// re-converge on the queue in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff.
	MaxDelay time.Duration
}

// backoff returns the jittered delay before retrying after the given
// failed attempt (1-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Full-jitter would lose the floor; ±25% keeps ordering roughly fair.
	jitter := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * jitter)
}

// Config parameterizes a Service.
type Config struct {
	// QueueCapacity bounds the number of queued (not yet running) jobs;
	// beyond it Submit sheds load with ErrQueueFull. Default 64.
	QueueCapacity int
	// Workers is the number of jobs executed concurrently. Each job
	// parallelizes internally via Runner.Workers, so the default is a
	// deliberately small 2.
	Workers int
	// TTL is how long terminal jobs stay queryable. Default 15 min.
	TTL time.Duration
	// EvictEvery is the janitor period. Default 1 min.
	EvictEvery time.Duration
	// Runner is the base experiment runner jobs start from (its Seeds,
	// BaseSeed and Mutate act as service-wide defaults).
	Runner experiment.Runner
	// Execute overrides job execution (stub point for tests/benchmarks).
	Execute ExecuteFunc
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// DataDir, when non-empty, enables the durability layer: Open
	// journals every job lifecycle transition to an fsync'd write-ahead
	// log under this directory, replays it on boot, re-enqueues jobs
	// that were queued or running at crash time, and resumes sweeps from
	// their last completed-cell checkpoint. Empty keeps the original
	// purely in-memory mode.
	DataDir string
	// Retry governs re-execution of failed attempts. The zero value
	// disables retries (MaxAttempts 1).
	Retry RetryPolicy
	// CompactBytes triggers journal compaction from the janitor once the
	// WAL grows past this size (default 8 MiB; only with DataDir).
	CompactBytes int64
	// Obs receives engine and sweep telemetry from every job this service
	// runs (threaded through experiment.Runner into each simulation).
	// Defaults to obs.Nop; mobicd installs an obs.Registry and merges its
	// families into /metrics.
	Obs obs.Recorder
	// Cache, when non-nil, enables the content-addressed result layer:
	// submissions are keyed by JobSpec.Digest, a digest already cached
	// returns a finished job immediately, concurrent identical submissions
	// collapse onto one in-flight job, and every successful output is
	// published back under its digest. Determinism makes this sound — the
	// cached value IS the result of that spec (see DESIGN.md S28).
	Cache *cache.Cache
	// WrapWAL, when non-nil, intercepts the journal's file handle — the
	// chaos harness installs a fault injector here to exercise torn writes
	// and fsync failures without the service importing it.
	WrapWAL func(WALFile) WALFile
	// Replicate enables proactive WAL replication: jobs submitted or
	// restored with a replica target (the X-Mobic-Replica header, set by a
	// coordinator to the job's ring successor) stream their checkpoint
	// records to that peer as they are journaled, so a failover restores
	// from a warm replica. It is the only way a coordinator's failover
	// keeps a sweep's progress.
	Replicate bool
	// ReplicaFlushEvery is the replication batching window (default 25 ms):
	// checkpoints landing within it coalesce into one batch.
	ReplicaFlushEvery time.Duration
	// ReplicaClient sends replication batches (default: 2 s timeout).
	ReplicaClient *http.Client
	// Tenants is the multi-tenant admission policy: per-tenant weights,
	// priorities, quotas and rate limits, plus the credential mapping
	// (API keys and X-Mobic-Tenant names). Nil runs the single default
	// tenant with no per-tenant limits — exactly the pre-multi-tenancy
	// behavior.
	Tenants *fair.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Runner.Workers <= 0 {
		// Split cores across concurrent jobs rather than letting every
		// job's cell pool oversubscribe the machine.
		c.Runner.Workers = max(1, runtime.GOMAXPROCS(0)/c.Workers)
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.EvictEvery <= 0 {
		c.EvictEvery = time.Minute
	}
	if c.Execute == nil {
		c.Execute = func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
			return spec.run(ctx, base, progress)
		}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 1
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay = 500 * time.Millisecond
	}
	if c.Retry.MaxDelay <= 0 {
		c.Retry.MaxDelay = 30 * time.Second
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 8 << 20
	}
	if c.Obs == nil {
		c.Obs = obs.Nop{}
	}
	if c.Runner.Obs == nil {
		c.Runner.Obs = c.Obs
	}
	if c.Tenants == nil {
		c.Tenants = fair.DefaultRegistry()
	}
	return c
}

// Service is the simulation-as-a-service backend: bounded per-tenant fair
// queueing (internal/fair), a worker pool over experiment.Runner, a
// TTL-evicted job store and, with Config.DataDir set, a write-ahead
// journal that makes all of it survive a crash.
type Service struct {
	cfg      Config
	store    *Store
	queue    *fair.Queue[*Job] // per-tenant WFQ sub-queues (see internal/fair)
	metrics  *Metrics
	tset     *obs.TenantSet // per-tenant admitted/shed/queued/running/done families
	journal  *Journal
	flights  *cache.Flight // digest -> in-flight leader job (Cache mode)
	repl     *replicator   // checkpoint streaming to ring successors (Replicate mode)
	replicas *ReplicaStore // checkpoint replicas received from ring predecessors

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workersWG  chan struct{} // closed when all workers exited
	janitorWG  chan struct{} // closed when the janitor exited
	retryWG    chan struct{} // 0-counter signal; see retryDone
	retryN     chan int      // serialized retry-goroutine counter
	draining   chan struct{} // closed when Shutdown begins

	submitMu  chan struct{} // 1-token semaphore guarding closed+enqueue
	closed    bool
	recovered int

	// compactMu makes journal compaction atomic with respect to the
	// append+update pairs that make a record durable and then reflect it
	// in the store. commit holds the read side across both steps; the
	// janitor holds the write side across snapshot-and-swap. Without it, a
	// snapshot taken between an fsync'd Append and its store update misses
	// the record, and the rewrite erases a durably acknowledged job from the
	// WAL.
	compactMu sync.RWMutex
}

// New builds an in-memory Service; call Start before submitting. For the
// durable, journal-backed mode use Open.
func New(cfg Config) *Service {
	return newService(cfg.withDefaults())
}

func newService(cfg Config) *Service {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		store:      NewStore(cfg.TTL),
		queue:      fair.NewQueue[*Job](cfg.Tenants, cfg.QueueCapacity, cfg.Clock),
		metrics:    NewMetrics(),
		tset:       obs.NewTenantSet(),
		flights:    cache.NewFlight(),
		replicas:   newReplicaStore(0, cfg.Obs),
		baseCtx:    ctx,
		baseCancel: cancel,
		workersWG:  make(chan struct{}),
		janitorWG:  make(chan struct{}),
		retryN:     make(chan int, 1),
		draining:   make(chan struct{}),
		submitMu:   make(chan struct{}, 1),
	}
	if cfg.Replicate {
		s.repl = newReplicator(cfg.ReplicaClient, cfg.ReplicaFlushEvery, cfg.Obs)
	}
	s.retryN <- 0
	return s
}

// Open builds a Service and, when cfg.DataDir is set, replays its journal:
// torn tails are truncated, jobs that already finished are restored as
// queryable terminal jobs (TTL permitting), and jobs that were queued or
// running when the previous process died are re-enqueued — sweeps resume
// from their last completed-cell checkpoint, so the recovered run's output
// is identical to an uninterrupted one. Call Start afterwards.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := newService(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	j, recs, err := openJournal(cfg.DataDir, cfg.WrapWAL)
	if err != nil {
		return nil, err
	}
	s.journal = j
	pending := s.restore(recs)
	// Boot compaction: rewrite the WAL from the restored state, dropping
	// records of expired jobs and whatever the torn-tail truncation left.
	if err := j.Compact(s.snapshotRecords()); err != nil {
		return nil, err
	}
	// Recovered jobs re-enter through Requeue, which bypasses quotas and
	// rate limits (they were admitted once already) and may exceed the
	// queue bound; Submit still sheds against cfg.QueueCapacity, so
	// backpressure semantics are unchanged.
	for _, job := range pending {
		s.queue.Requeue(job.tenant, job)
		s.tenantCounters(job.tenant).Queued.Add(1)
	}
	s.recovered = len(pending)
	return s, nil
}

// restore folds replayed records into store state and returns the
// non-terminal jobs to re-enqueue, in submission order.
//
// It also re-seeds the observability counters and the Retry-After EWMA
// from the replayed log: a freshly booted daemon whose store holds N jobs
// must not report zero submissions on /metrics, and its 429 Retry-After
// hint must extrapolate from the journaled durations of jobs that finished
// before the crash rather than restarting blind at the 1 s floor. Jobs
// whose TTL expired while the daemon was down are dropped without touching
// any counter, so /metrics stays consistent with store contents.
func (s *Service) restore(recs []record) []*Job {
	now := s.cfg.Clock()
	jobs := make(map[string]*Job)
	var order []*Job
	// finished remembers terminal records so TTL filtering and terminal
	// reconstruction happen after the whole log is folded.
	type terminal struct {
		state    State
		errMsg   string
		output   *Output
		finished time.Time
	}
	ends := make(map[string]terminal)
	starts := make(map[string]time.Time)
	for _, rec := range recs {
		switch rec.Type {
		case recSubmit, recBatch:
			// A submit admits one job; a batch frame admits all of its
			// entries, and the CRC framing already guaranteed we either see
			// every entry or none.
			entries := rec.Batch
			if rec.Type == recSubmit {
				entries = []batchEntry{{Job: rec.Job, Spec: rec.Spec}}
			}
			for _, be := range entries {
				if be.Spec == nil || be.Job == "" || jobs[be.Job] != nil {
					continue
				}
				job := s.newJob(be.Job, *be.Spec, rec.Key, s.cfg.Tenants.Canonical(rec.Tenant), rec.Time)
				jobs[be.Job] = job
				order = append(order, job)
			}
		case recStart, recRetry:
			if job := jobs[rec.Job]; job != nil {
				job.attempt = rec.Attempt
				starts[rec.Job] = rec.Time
			}
		case recCheckpoint:
			if job := jobs[rec.Job]; job != nil && rec.Stats != nil {
				job.addCheckpoint(rec.Cell, *rec.Stats)
			}
		case recFinish:
			if jobs[rec.Job] != nil {
				ends[rec.Job] = terminal{rec.State, rec.Error, rec.Output, rec.Time}
			}
		}
	}
	var pending []*Job
	for _, job := range order {
		end, done := ends[job.id]
		if done && now.Sub(end.finished) >= s.cfg.TTL {
			continue // expired while the daemon was down; invisible to /metrics
		}
		s.metrics.submitted.Add(1)
		tc := s.tenantCounters(job.tenant)
		tc.Admitted.Add(1)
		if done {
			tc.Done.Add(1)
			if st, ok := starts[job.id]; ok {
				job.started = st
			}
			s.metrics.finished(end.state)
			// Re-seed the Retry-After EWMA from the journaled run, so the
			// first post-boot 429 extrapolates drain time from real
			// durations instead of the floor.
			if st, ok := starts[job.id]; ok && end.finished.After(st) {
				s.metrics.ObserveLatency(end.finished.Sub(st).Seconds())
			}
			job.finish(end.state, end.output, end.errMsg, end.finished)
			s.store.Put(job)
			continue
		}
		if s.cfg.Retry.MaxAttempts > 1 && job.attempt >= s.cfg.Retry.MaxAttempts {
			// Crash-looped through its whole budget: quarantine at boot
			// instead of letting it take the pool down again.
			s.metrics.finished(StatePoisoned)
			tc.Done.Add(1)
			job.finish(StatePoisoned, nil,
				fmt.Sprintf("poisoned at recovery after %d attempts", job.attempt), now)
			s.store.Put(job)
			continue
		}
		if s.cfg.Cache != nil {
			// Re-enqueued jobs re-take their flight slot so duplicate
			// submissions arriving after the reboot still collapse.
			job.digest = job.spec.Digest()
			s.flights.Begin(job.digest, job.id)
		}
		s.store.Put(job)
		pending = append(pending, job)
	}
	return pending
}

// snapshotRecords renders the whole store as logical journal records —
// the compaction image.
func (s *Service) snapshotRecords() []record {
	var recs []record
	for _, job := range s.store.All() {
		recs = append(recs, jobRecords(job)...)
	}
	return recs
}

// commit is the one journal write: it appends recs in one write and one
// fsync, then runs apply, the in-memory change they record, holding the
// compaction read-lock across both. That closes the window the janitor's
// snapshot could otherwise slip into — record durably in the WAL, store
// not yet updated — where compaction would rewrite the log without the
// record and a crash would silently undo an acknowledged transition (a
// job lost, a finished job re-running, a checkpoint lost).
//
// An admission (admission true) stores nothing when the append fails: apply
// is skipped and the error returned, because a job is durable before it is
// acknowledged. Any other transition belongs to a job a worker already
// holds: it is applied whether or not the append succeeded, because the
// failure has already latched /readyz and a job in flight is better
// finished in memory than aborted halfway. apply may be nil for a record
// whose effect is already in memory (start, retry).
func (s *Service) commit(admission bool, apply func(), recs ...record) error {
	s.compactMu.RLock()
	defer s.compactMu.RUnlock()
	if s.journal != nil && len(recs) > 0 {
		if err := s.journal.Append(recs...); err != nil && admission {
			return err
		}
	}
	if apply != nil {
		apply()
	}
	return nil
}

// Metrics exposes the service counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Observability exposes the engine/sweep telemetry recorder the service
// threads into every job (obs.Nop unless Config.Obs installed one).
// /metrics renders its families when it is an obs.Registry.
func (s *Service) Observability() obs.Recorder { return s.cfg.Obs }

// QueueDepth returns the number of jobs waiting for a worker, summed
// across every tenant's sub-queue.
func (s *Service) QueueDepth() int { return s.queue.Len() }

// TenantDepth returns one tenant's queued-job count (canonical name; ""
// for the default tenant).
func (s *Service) TenantDepth(tenant string) int {
	return s.queue.Depth(s.cfg.Tenants.Canonical(tenant))
}

// TenantMetrics exposes the per-tenant metric families; the HTTP layer
// appends them to /metrics.
func (s *Service) TenantMetrics() *obs.TenantSet { return s.tset }

// Tenants exposes the tenant registry (never nil after construction), so
// HTTP layers can resolve request credentials to canonical tenant names.
func (s *Service) Tenants() *fair.Registry { return s.cfg.Tenants }

// ResolveTenant maps request credentials (Authorization, X-Mobic-Tenant)
// to the canonical tenant name SubmitOpts.Tenant expects.
func (s *Service) ResolveTenant(authorization, tenantHeader string) string {
	return s.cfg.Tenants.Resolve(authorization, tenantHeader)
}

// tenantCounters returns the per-tenant counters for a canonical tenant
// name, keeping the weight gauge in sync with the registry policy.
func (s *Service) tenantCounters(tenant string) *obs.TenantCounters {
	tc := s.tset.Tenant(fair.Display(tenant))
	tc.SetWeight(s.cfg.Tenants.Lookup(tenant).Weight)
	return tc
}

// QueueCapacity returns the queue bound.
func (s *Service) QueueCapacity() int { return s.cfg.QueueCapacity }

// StoredJobs returns the number of jobs currently in the store.
func (s *Service) StoredJobs() int { return s.store.Len() }

// RecoveredJobs returns how many interrupted jobs Open re-enqueued.
func (s *Service) RecoveredJobs() int { return s.recovered }

// Ready reports whether the service should receive traffic: false while
// draining and false when the journal cannot persist records. The reason
// string is human-readable for the /readyz body.
func (s *Service) Ready() (bool, string) {
	if s.Draining() {
		return false, "draining"
	}
	if s.journal != nil {
		if err := s.journal.Err(); err != nil {
			return false, err.Error()
		}
	}
	return true, ""
}

// RetryAfterHint estimates, in whole seconds, how long a shed client
// should wait before resubmitting: the queue's expected drain time from
// the EWMA of recent job durations, floored at 1 s and capped at 30 s.
func (s *Service) RetryAfterHint() int {
	return RetryAfterSeconds(s.QueueDepth(), s.cfg.Workers, s.metrics.LatencyEWMA())
}

// RetryAfterSeconds is the pure computation behind RetryAfterHint,
// exported so the coordinator can produce the same hint shape from its
// cluster-wide view (tracked in-flight jobs over healthy workers).
func RetryAfterSeconds(depth, workers int, ewmaSeconds float64) int {
	if workers < 1 {
		workers = 1
	}
	if ewmaSeconds <= 0 {
		// No completed job yet: nothing to extrapolate from, suggest the
		// minimum.
		return 1
	}
	wait := ewmaSeconds * float64(depth+1) / float64(workers)
	secs := int(math.Ceil(wait))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Start launches the worker pool and the TTL janitor.
func (s *Service) Start() {
	done := make([]chan struct{}, s.cfg.Workers)
	for i := range done {
		ch := make(chan struct{})
		done[i] = ch
		go func() {
			defer close(ch)
			for {
				// Pop applies priority, WFQ order and per-tenant running
				// caps; it blocks until the queue closes and drains.
				job, tenant, ok := s.queue.Pop()
				if !ok {
					return
				}
				tc := s.tenantCounters(tenant)
				tc.Queued.Add(-1)
				tc.Running.Add(1)
				// runJob takes the job out of Running itself: through
				// end, or when it schedules a retry.
				s.runJob(job)
				s.queue.Release(tenant)
			}
		}()
	}
	go func() {
		defer close(s.workersWG)
		for _, ch := range done {
			<-ch
		}
	}()
	go func() {
		defer close(s.janitorWG)
		ticker := time.NewTicker(s.cfg.EvictEvery)
		defer ticker.Stop()
		for {
			select {
			case <-s.baseCtx.Done():
				return
			case <-ticker.C:
				s.store.EvictExpired(s.cfg.Clock())
				s.replicas.Prune(s.cfg.TTL, s.cfg.Clock())
				// Compact past the size bound — or to heal a wedged journal:
				// after an append failure the WAL may end mid-frame, and only
				// a rewrite from live state makes it appendable (and the
				// daemon ready) again.
				if s.journal != nil && (s.journal.Size() > s.cfg.CompactBytes || s.journal.Err() != nil) {
					// The write side of compactMu excludes every in-flight
					// append+update pair, so the snapshot and the WAL swap
					// are atomic with respect to commit: no
					// record fsync'd before the swap can be missing from
					// the snapshot that replaces it.
					s.compactMu.Lock()
					_ = s.journal.Compact(s.snapshotRecords())
					s.compactMu.Unlock()
				}
			}
		}
	}()
}

// Submit validates the spec and enqueues a job. It never blocks: a full
// queue fails fast with ErrQueueFull so the HTTP layer can shed load.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	job, _, err := s.SubmitWith(spec, SubmitOpts{})
	return job, err
}

// SubmitOpts carries the optional submission parameters.
type SubmitOpts struct {
	// Key is the idempotency key ("" for none).
	Key string
	// Replica is the base URL of the peer this job's checkpoint records
	// should be streamed to as they are journaled ("" for none). Only
	// honored with Config.Replicate; a coordinator sets it to the job's
	// ring successor via the X-Mobic-Replica header.
	Replica string
	// Tenant is the canonical tenant name the submission is admitted
	// under, as returned by ResolveTenant ("" = default tenant). Unknown
	// names fold per the registry's dynamic policy.
	Tenant string
}

// SubmitWith is Submit with the full option set. With an idempotency key,
// a stored job with the same key (any state) is returned with
// existed=true instead of double-submitting. Keys are journaled with the
// submission, so replay protection survives a restart; they are released
// when the job's TTL evicts it.
func (s *Service) SubmitWith(spec JobSpec, opts SubmitOpts) (job *Job, existed bool, err error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	tenant := s.cfg.Tenants.Canonical(opts.Tenant)

	// The semaphore serializes the closed-check with the enqueue so no
	// job can slip into the queue after Shutdown closed it; it also makes
	// idempotency lookups race-free against concurrent retries of the
	// same key, and serializes the Admit/Enqueue admission pair.
	s.submitMu <- struct{}{}
	defer func() { <-s.submitMu }()
	if s.closed {
		return nil, false, ErrShuttingDown
	}
	if opts.Key != "" {
		if prev, ok := s.store.ByKey(opts.Key); ok {
			return prev, true, nil
		}
	}
	var digest string
	if s.cfg.Cache != nil {
		digest = spec.Digest()
		// Finished result already cached: serve it as an instantly
		// terminal job, no queue slot and no simulation. Cache hits skip
		// admission on purpose — they consume no queue slot or worker.
		if job, ok := s.completeFromCache(spec, opts.Key, digest, tenant); ok {
			return job, false, nil
		}
		// Identical submission already in flight: attach to the leader.
		if leaderID, ok := s.flights.Leader(digest); ok {
			if prev, ok := s.store.Get(leaderID); ok {
				return prev, true, nil
			}
		}
	}
	job = s.newJob(newJobID(), spec, opts.Key, tenant, s.cfg.Clock())
	job.digest = digest
	if err := s.admitJobs(tenant, opts, []*Job{job}, jobRecords(job)); err != nil {
		return nil, false, err
	}
	return job, false, nil
}

// admitJobs is the admission tail every new job passes through: submit,
// restore and batch. Callers hold submitMu and pass the WAL records that
// admit jobs. One admission decision covers all of jobs; the records are
// journaled and the jobs stored as one step; then each job takes its
// digest's flight slot if it is free, starts replicating and is queued.
func (s *Service) admitJobs(tenant string, opts SubmitOpts, jobs []*Job, recs []record) error {
	if err := s.admit(tenant, len(jobs)); err != nil {
		return err
	}
	if s.repl != nil {
		for _, job := range jobs {
			job.replica = opts.Replica
		}
	}
	err := s.commit(true, func() {
		for _, job := range jobs {
			s.store.Put(job)
		}
	}, recs...)
	if err != nil {
		return err
	}
	for _, job := range jobs {
		if job.digest != "" {
			s.flights.Begin(job.digest, job.id)
		}
		// Replication starts before a worker can pop the job, so its
		// opening image is the submit and seeded prefix just journaled.
		if s.repl != nil {
			s.repl.begin(job)
		}
		s.enqueue(job)
	}
	return nil
}

// enqueue places an admitted job on its tenant's sub-queue and bumps the
// submission counters. Callers must hold submitMu (or be pre-Start
// recovery code).
func (s *Service) enqueue(job *Job) {
	s.queue.Enqueue(job.tenant, job)
	s.metrics.submitted.Add(1)
	tc := s.tenantCounters(job.tenant)
	tc.Admitted.Add(1)
	tc.Queued.Add(1)
}

// completeFromCache serves one submission from the result cache: a job is
// created and immediately finished with the cached output, journaled like
// any other completed job so it stays queryable across a restart. Callers
// must hold submitMu. Returns false on a cache miss (or an undecodable
// entry, which degrades to a miss).
func (s *Service) completeFromCache(spec JobSpec, key, digest, tenant string) (*Job, bool) {
	data, ok := s.cfg.Cache.Get(digest)
	if !ok {
		return nil, false
	}
	var out Output
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, false
	}
	now := s.cfg.Clock()
	job := s.newJob(newJobID(), spec, key, tenant, now)
	job.digest = digest
	job.finish(StateSucceeded, &out, "", now)
	if err := s.commit(true, func() { s.store.Put(job) }, jobRecords(job)...); err != nil {
		// The journal is wedged; fall through to the normal submit path,
		// which surfaces the error to the caller.
		return nil, false
	}
	s.metrics.submitted.Add(1)
	s.metrics.finished(StateSucceeded)
	// A cache hit consumes no queue slot or worker, so it bypasses the
	// admission gate; it still counts toward the tenant's admitted/done
	// tallies so the fairness-share observables stay truthful.
	tc := s.tenantCounters(tenant)
	tc.Admitted.Add(1)
	tc.Done.Add(1)
	return job, true
}

// settle closes out a job's content-addressed bookkeeping at its terminal
// transition: a successful output is published to the result cache under
// the job's digest, and the in-flight leadership (if this job holds it) is
// released so later identical submissions consult the cache instead of
// attaching. No-op outside cache mode.
func (s *Service) settle(job *Job, out *Output) {
	if job.digest == "" {
		return
	}
	if out != nil && s.cfg.Cache != nil {
		if data, err := json.Marshal(out); err == nil {
			s.cfg.Cache.Put(job.digest, data)
		}
	}
	s.flights.End(job.digest, job.id)
}

// Restore enqueues a job under a caller-chosen ID: the coordinator's
// failover entry point. It is a submit under that ID, seeded from the
// local replica store. When a ring predecessor streamed this job's
// checkpoints here, the job resumes past their contiguous prefix exactly
// as a local crash recovery would, so its output, and its per-cell trace
// digests, are identical to an uninterrupted run (resume-equals-rerun,
// proven in the recovery tests). If a job with the same ID (or
// idempotency key) already exists, that job is returned with
// existed=true, which makes failover re-dispatch idempotent. Backpressure
// matches Submit: a full queue sheds with ErrQueueFull.
func (s *Service) Restore(id string, spec JobSpec, opts SubmitOpts) (job *Job, existed bool, err error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if id == "" || len(id) > 64 {
		return nil, false, invalidf("restore id %q must be 1-64 characters", id)
	}
	// The replica came from a peer over the network: it must be of the
	// same spec, and its prefix must fit the sweep.
	var cps []experiment.CellStats
	if spec.Sweep != nil {
		if rspec, _, rcps, ok := s.replicas.Lookup(id); ok && len(rcps) > 0 && rspec.Digest() == spec.Digest() {
			cells := len(spec.Sweep.Algorithms) * max(1, len(spec.Sweep.TxRanges))
			if len(rcps) > cells {
				return nil, false, invalidf("replica's %d checkpoints exceed the sweep's %d cells", len(rcps), cells)
			}
			cps = rcps
		}
	}
	var digest string
	if s.cfg.Cache != nil {
		digest = spec.Digest()
	}
	tenant := s.cfg.Tenants.Canonical(opts.Tenant)

	s.submitMu <- struct{}{}
	defer func() { <-s.submitMu }()
	if s.closed {
		return nil, false, ErrShuttingDown
	}
	if prev, ok := s.store.Get(id); ok {
		return prev, true, nil
	}
	if opts.Key != "" {
		if prev, ok := s.store.ByKey(opts.Key); ok {
			return prev, true, nil
		}
	}
	job = s.newJob(id, spec, opts.Key, tenant, s.cfg.Clock())
	job.digest = digest
	for i, cs := range cps {
		job.addCheckpoint(i, cs)
	}
	if err := s.admitJobs(tenant, opts, []*Job{job}, jobRecords(job)); err != nil {
		return nil, false, err
	}
	if len(cps) > 0 {
		s.cfg.Obs.Add(obs.ReplRestores, 1)
	}
	return job, false, nil
}

// Replicas exposes the checkpoint-replica store (the receiving side of
// proactive WAL replication); the HTTP layer serves it at /v1/replica/{id}.
func (s *Service) Replicas() *ReplicaStore { return s.replicas }

// Get looks a job up by ID.
func (s *Service) Get(id string) (*Job, bool) { return s.store.Get(id) }

// Cancel requests cancellation of a job by ID. A running job's context is
// canceled (its sweep aborts at the next scheduler chunk); a queued job is
// finished as canceled when a worker pops it.
func (s *Service) Cancel(id string) (*Job, bool) {
	job, ok := s.store.Get(id)
	if !ok {
		return nil, false
	}
	job.RequestCancel()
	return job, true
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Shutdown drains gracefully: no new submissions, queued and in-flight
// jobs run to completion (pending backoff retries are abandoned — in
// durable mode the journal re-runs them on the next boot). If ctx expires
// first, every remaining job is canceled and Shutdown returns ctx.Err()
// once workers exit.
func (s *Service) Shutdown(ctx context.Context) error {
	s.submitMu <- struct{}{}
	if !s.closed {
		s.closed = true
		s.queue.Close()
		close(s.draining)
	}
	<-s.submitMu

	finish := func() {
		s.baseCancel() // stop the janitor and wake pending retry timers
		s.waitRetries()
		<-s.janitorWG
		if s.repl != nil {
			s.repl.close()
		}
		if s.journal != nil {
			_ = s.journal.Close()
		}
	}
	select {
	case <-s.workersWG:
		finish()
		return nil
	case <-ctx.Done():
		// Drain deadline hit: abort in-flight jobs and the janitor.
		s.baseCancel()
		<-s.workersWG
		finish()
		return ctx.Err()
	}
}

// addRetry / doneRetry / waitRetries track in-flight retry goroutines with
// a channel-based counter (the codebase avoids sync.WaitGroup re-use
// pitfalls around Shutdown's two paths).
func (s *Service) addRetry()  { n := <-s.retryN; s.retryN <- n + 1 }
func (s *Service) doneRetry() { n := <-s.retryN; s.retryN <- n - 1 }
func (s *Service) waitRetries() {
	for {
		n := <-s.retryN
		s.retryN <- n
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// safeExecute invokes the executor with panic isolation: a panicking job
// surfaces as ErrJobPanicked (value and stack preserved) on its own job
// instead of killing the daemon and every other in-flight job with it.
func (s *Service) safeExecute(ctx context.Context, spec JobSpec, runner experiment.Runner, progress func(done, total int)) (out *Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("%w: %v\n%s", ErrJobPanicked, r, debug.Stack())
		}
	}()
	return s.cfg.Execute(ctx, spec, runner, progress)
}

// end is the one way out for a job a worker holds. It counts the terminal
// state, commits the finish record together with the tenant's books
// (Running down, Done up) and job.finish, then settles the result cache and
// the flight slot. The books move before the job is seen finished, so a
// client that sees the job finished never reads it as still running on
// /metrics. With durable false no finish record is written: a shutdown
// abort leaves the WAL showing the job mid-flight, so the next boot
// re-enqueues and resumes it.
func (s *Service) end(job *Job, state State, out *Output, errMsg string, at time.Time, durable bool) {
	s.metrics.finished(state)
	var recs []record
	if durable {
		recs = append(recs, record{Type: recFinish, Job: job.ID(), Time: at, State: state, Error: errMsg, Output: out})
	}
	_ = s.commit(false, func() {
		tc := s.tenantCounters(job.tenant)
		tc.Running.Add(-1)
		tc.Done.Add(1)
		job.finish(state, out, errMsg, at)
	}, recs...)
	s.settle(job, out)
}

// runJob executes one popped job end to end and classifies the outcome.
func (s *Service) runJob(job *Job) {
	now := s.cfg.Clock()
	if s.repl != nil {
		// A terminal job needs no replica: the successor would serve the
		// result, not resume it. Retried jobs stay registered.
		defer func() {
			if st, _, _ := job.Snapshot(); st.State.Terminal() {
				s.repl.finish(job.ID())
			}
		}()
	}

	jobCtx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if t := job.spec.TimeoutSeconds; t > 0 {
		jobCtx, cancel = context.WithTimeout(jobCtx, time.Duration(t*float64(time.Second)))
		defer cancel()
	}

	if !job.setRunning(cancel, now) {
		// Canceled while queued: never ran.
		s.end(job, StateCanceled, nil, context.Canceled.Error(), now, true)
		return
	}
	attempt := job.beginAttempt()
	_ = s.commit(false, nil, record{Type: recStart, Job: job.ID(), Time: now, Attempt: attempt})

	runner := s.cfg.Runner
	if job.spec.Sweep != nil {
		// Checkpoint/resume only applies to sweep jobs: they make exactly
		// one RunCells call, so the journaled contiguous cell prefix maps
		// 1:1 onto a StartCell offset. Named experiments re-run whole.
		if cps := job.checkpointed(); len(cps) > 0 {
			runner.StartCell = len(cps)
			runner.Resume = cps
		}
		runner.Checkpoint = func(cell int, cs experiment.CellStats) {
			if !job.spec.IncludeRaw {
				// runSweep strips Raw from this job's output anyway, so
				// the journal, the replica and the held prefix need not
				// carry the per-seed snapshots.
				cs.Raw = nil
			}
			rec := record{Type: recCheckpoint, Job: job.ID(), Time: s.cfg.Clock(), Cell: cell, Stats: &cs}
			_ = s.commit(false, func() { job.addCheckpoint(cell, cs) }, rec)
			if s.repl != nil {
				// Replication rides the same record the WAL just fsync'd, so
				// the replica can never run ahead of local durability.
				s.repl.checkpoint(job.ID(), rec)
			}
		}
	}

	s.metrics.inFlight.Add(1)
	out, err := s.safeExecute(jobCtx, job.spec, runner, job.setProgress)
	s.metrics.inFlight.Add(-1)

	at := s.cfg.Clock()
	s.metrics.ObserveLatency(at.Sub(now).Seconds())
	if s.cfg.Obs.Enabled() {
		s.cfg.Obs.Span(obs.SpanJob, now.UnixNano(), at.UnixNano())
	}
	switch {
	case err == nil:
		s.end(job, StateSucceeded, out, "", at, true)
	case errors.Is(err, context.Canceled):
		// Only a caller's cancel is journaled as terminal. A shutdown abort
		// (baseCtx canceled without a user request) deliberately is not:
		// the WAL still shows the job mid-flight, so the next boot
		// re-enqueues and resumes it.
		s.end(job, StateCanceled, nil, err.Error(), at, job.CancelRequested())
	case errors.Is(err, context.DeadlineExceeded):
		// The job consumed its own wall-clock budget; retrying would just
		// burn it again.
		s.end(job, StateFailed, nil, err.Error(), at, true)
	default:
		s.failAttempt(job, attempt, err, at)
	}
}

// failAttempt classifies a failed execution: re-queue with backoff while
// attempts remain, quarantine as poisoned once they are exhausted (retries
// enabled), plain failure otherwise.
func (s *Service) failAttempt(job *Job, attempt int, cause error, now time.Time) {
	maxAttempts := s.cfg.Retry.MaxAttempts
	if attempt < maxAttempts && !s.Draining() {
		_ = s.commit(false, nil, record{Type: recRetry, Job: job.ID(), Time: now, Attempt: attempt, Error: cause.Error()})
		if job.setRetrying(cause.Error()) {
			// The job re-enters Queued when the backoff requeues it.
			s.tenantCounters(job.tenant).Running.Add(-1)
			s.metrics.retried.Add(1)
			s.scheduleRetry(job, attempt, cause)
			return
		}
		// Canceled between the failure and the retry decision.
		s.end(job, StateCanceled, nil, context.Canceled.Error(), now, true)
		return
	}
	if maxAttempts > 1 && attempt >= maxAttempts {
		s.end(job, StatePoisoned, nil, fmt.Sprintf("poisoned after %d attempts: %v", attempt, cause), now, true)
		return
	}
	s.end(job, StateFailed, nil, cause.Error(), now, true)
}

// scheduleRetry re-enqueues job after a capped, jittered exponential
// backoff. Shutdown abandons the wait: the in-memory job finishes
// canceled, and in durable mode the journal's retry record re-runs it on
// the next boot.
func (s *Service) scheduleRetry(job *Job, attempt int, cause error) {
	delay := s.cfg.Retry.backoff(attempt)
	s.addRetry()
	go func() {
		defer s.doneRetry()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-s.draining:
		case <-s.baseCtx.Done():
		}
		s.submitMu <- struct{}{}
		if s.closed {
			<-s.submitMu
			s.metrics.finished(StateCanceled)
			s.tenantCounters(job.tenant).Done.Add(1)
			job.finish(StateCanceled, nil,
				fmt.Sprintf("retry %d abandoned by shutdown (last error: %v)", attempt+1, cause), s.cfg.Clock())
			s.settle(job, nil)
			return
		}
		// Requeue bypasses quota and rate admission on purpose: the job
		// was admitted at submit time and shedding a retry would turn a
		// transient execution failure into a lost acknowledged job. The
		// unbounded sub-queue means this never blocks.
		s.queue.Requeue(job.tenant, job)
		s.tenantCounters(job.tenant).Queued.Add(1)
		<-s.submitMu
	}()
}
