package dispatch

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"reflect"
	"sync"
	"time"

	"mobic/internal/cache"
	"mobic/internal/obs"
	"mobic/internal/service"
	"mobic/internal/stats"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Peers is the list of worker base URLs (e.g. "http://10.0.0.1:8080").
	// At least one is required.
	Peers []string
	// VNodes is the number of virtual nodes per peer on the placement ring
	// (default 64).
	VNodes int
	// Client performs control-plane calls: submits, status polls, health
	// checks, restores. Default: 5 s timeout. Streams use a derived client
	// without the overall timeout (a stream lives as long as its job).
	Client *http.Client
	// HealthEvery is the /readyz probe period (default 2 s).
	HealthEvery time.Duration
	// PollEvery is the tracked-job status poll period (default 1 s). A
	// poll only catches completion; progress reaches a failover target by
	// replication, not through the coordinator.
	PollEvery time.Duration
	// FailAfter is the number of consecutive failed health probes that
	// mark a peer down and trigger failover (default 2). One blip on a
	// loaded network should not re-dispatch every job on the box.
	FailAfter int
	// AttemptTimeout bounds each individual control-plane call attempt
	// (default 5 s). A peer that hangs mid-request costs at most this
	// long per attempt instead of wedging a poll pass.
	AttemptTimeout time.Duration
	// CallAttempts is how many attempts one logical control-plane call
	// gets before failing (default 3). Attempts after the first wait out
	// a capped exponential backoff with jitter (100 ms base, 2 s cap).
	CallAttempts int
	// BreakerThreshold is the consecutive transport-failure count that
	// opens a peer's circuit breaker (default 5). While open, calls to
	// that peer fail locally instead of burning an attempt timeout each.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses calls before
	// admitting a single half-open probe (default 5 s).
	BreakerCooldown time.Duration
	// Replicate, when true, assigns every placed job a checkpoint-replica
	// target — the first healthy distinct ring successor of its owner —
	// via the X-Mobic-Replica header on submits and failover restores.
	// Workers must run with replication enabled for the header to bite.
	// Replication is the only way a failover keeps a sweep's progress:
	// with it off, a failed-over job re-runs from its first cell (the
	// output is the same, since resume equals re-run).
	Replicate bool
	// Local, when non-nil, is an embedded fallback service: a submission
	// arriving while no worker is reachable runs locally (its status is
	// flagged "degraded") instead of being bounced with a 503.
	Local *service.Service
	// WorkersPerPeer scales the cluster-wide Retry-After hint (default 2,
	// the worker daemon's own default pool size).
	WorkersPerPeer int
	// TTL is how long terminal jobs stay queryable at the coordinator
	// (default 15 min, matching the workers').
	TTL time.Duration
	// Cache, when non-nil, is the coordinator's digest-keyed result layer:
	// finished outputs are published into it and identical resubmissions
	// are answered without touching any worker.
	Cache *cache.Cache
	// Obs receives dispatch telemetry (forwards, failovers, healthy-peer
	// gauge). Defaults to obs.Nop.
	Obs obs.Recorder
	// Logger receives operational events (peer transitions, failovers).
	// Defaults to a discard logger.
	Logger *slog.Logger
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 2 * time.Second
	}
	if c.PollEvery <= 0 {
		c.PollEvery = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 5 * time.Second
	}
	if c.CallAttempts <= 0 {
		c.CallAttempts = 3
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.WorkersPerPeer <= 0 {
		c.WorkersPerPeer = 2
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.Obs == nil {
		c.Obs = obs.Nop{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// remoteJob is the coordinator's record of one dispatched job: enough to
// answer status queries for terminal jobs locally, and enough to re-create
// the job on a successor worker when its current one dies.
type remoteJob struct {
	id     string
	digest string
	// placement is the ring key the job was placed by: its digest for a
	// single submit, the combined digest of its batch for a batch job.
	// The replica target was chosen by it too, so failover walks the ring
	// from it. Empty for jobs no worker holds (cache answers, degraded).
	placement string
	key       string
	spec      service.JobSpec
	// tenant is the canonical tenant name the owning worker admitted the
	// job under; failover restores preserve it so the successor charges
	// the same tenant's quota and fair share.
	tenant string
	// peer is the worker currently responsible for the job.
	peer string
	// synthetic marks a job the coordinator answered from its own cache;
	// no worker has ever heard of its ID.
	synthetic bool
	// local marks a degraded-mode job the coordinator ran on its embedded
	// fallback service because no worker was reachable at submit time. It
	// has no peer and never fails over.
	local    bool
	terminal bool
	final    *service.Status
	created  time.Time
	finished time.Time
}

// Coordinator places jobs on workers, tracks them to completion, and fails
// them over. All exported methods are safe for concurrent use.
type Coordinator struct {
	cfg          Config
	ring         *Ring
	flights      *cache.Flight
	streamClient *http.Client
	breakers     map[string]*Breaker // one per ring peer; read-only after New

	mu        sync.Mutex
	peerFails map[string]int
	peerDown  map[string]bool
	jobs      map[string]*remoteJob
	ewma      *stats.EWMA // seconds per job, for cluster Retry-After hints

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// New builds a Coordinator over the configured peers. Call Start to begin
// health checking and job tracking.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring := NewRing(cfg.Peers, cfg.VNodes)
	if len(ring.Peers()) == 0 {
		return nil, fmt.Errorf("dispatch: no peers configured")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		flights: cache.NewFlight(),
		// Same transport, no overall timeout: streams outlive any fixed cap.
		streamClient: &http.Client{Transport: cfg.Client.Transport},
		peerFails:    make(map[string]int),
		peerDown:     make(map[string]bool),
		breakers:     make(map[string]*Breaker),
		jobs:         make(map[string]*remoteJob),
		ewma:         stats.NewEWMA(service.EWMAAlpha),
		ctx:          ctx,
		cancel:       cancel,
		done:         make(chan struct{}),
	}
	for _, p := range ring.Peers() {
		c.breakers[p] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock)
	}
	return c, nil
}

// Start performs one synchronous health pass (so placement has a live view
// before the first submit) and launches the background loop.
func (c *Coordinator) Start() {
	c.healthPass()
	go c.loop()
}

// Shutdown stops the background loop.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.cancel()
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Coordinator) loop() {
	defer close(c.done)
	health := time.NewTicker(c.cfg.HealthEvery)
	defer health.Stop()
	poll := time.NewTicker(c.cfg.PollEvery)
	defer poll.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-health.C:
			c.healthPass()
		case <-poll.C:
			c.pollPass()
		}
	}
}

// HealthyPeers returns the peers currently passing /readyz.
func (c *Coordinator) HealthyPeers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var up []string
	for _, p := range c.ring.Peers() {
		if !c.peerDown[p] {
			up = append(up, p)
		}
	}
	return up
}

// TrackedJobs returns how many jobs the coordinator is tracking.
func (c *Coordinator) TrackedJobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs)
}

func (c *Coordinator) isDown(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerDown[peer]
}

// healthPass probes every peer's /readyz, updates the down set, publishes
// the healthy gauge, retries failover for stranded jobs, and prunes
// expired terminal jobs.
func (c *Coordinator) healthPass() {
	type result struct {
		peer string
		ok   bool
	}
	peers := c.ring.Peers()
	results := make(chan result, len(peers))
	for _, p := range peers {
		go func(p string) {
			ok := false
			req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, p+"/readyz", nil)
			if err == nil {
				resp, err := c.cfg.Client.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ok = resp.StatusCode == http.StatusOK
				}
			}
			results <- result{p, ok}
		}(p)
	}
	healthy := 0
	for range peers {
		r := <-results
		c.mu.Lock()
		wasDown := c.peerDown[r.peer]
		if r.ok {
			c.peerFails[r.peer] = 0
			c.peerDown[r.peer] = false
			healthy++
			if wasDown {
				c.cfg.Logger.Info("peer recovered", "peer", r.peer)
			}
		} else {
			c.peerFails[r.peer]++
			if c.peerFails[r.peer] >= c.cfg.FailAfter && !wasDown {
				c.peerDown[r.peer] = true
				c.cfg.Logger.Warn("peer marked down", "peer", r.peer, "fails", c.peerFails[r.peer])
			}
		}
		c.mu.Unlock()
	}
	c.cfg.Obs.Set(obs.DispatchPeersHealthy, float64(healthy))
	c.failoverStranded()
	c.pruneExpired()
}

// failoverStranded re-dispatches every non-terminal job whose peer is down
// to the ring successor, which resumes it from its replica store. It
// runs every health pass, so a failover that could not land (successor
// also down, transient error) is retried until it does.
func (c *Coordinator) failoverStranded() {
	c.mu.Lock()
	var stranded []*remoteJob
	for _, j := range c.jobs {
		if !j.terminal && !j.synthetic && !j.local && c.peerDown[j.peer] {
			stranded = append(stranded, j)
		}
	}
	c.mu.Unlock()
	for _, j := range stranded {
		c.failover(j)
	}
}

// failover ships job's spec, key and tenant to the first healthy peer in
// ring-successor order from the job's placement key and repoints the job
// there. The target was the old owner's replica target, so it resumes
// from the checkpoints the owner streamed to it.
func (c *Coordinator) failover(j *remoteJob) {
	start := c.cfg.Clock()
	c.mu.Lock()
	oldPeer := j.peer
	c.mu.Unlock()

	target := c.ring.Owner(j.placement, c.isDown)
	if target == "" || target == oldPeer {
		return
	}
	body, err := json.Marshal(struct {
		Spec   service.JobSpec `json:"spec"`
		Key    string          `json:"key,omitempty"`
		Tenant string          `json:"tenant,omitempty"`
	}{j.spec, j.key, j.tenant})
	if err != nil {
		return
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	if rt := c.replicaTarget(j.placement, target); rt != "" {
		// The restored job streams its checkpoints onward too: a second
		// failure must not be the one that loses progress.
		hdr.Set("X-Mobic-Replica", rt)
	}
	resp, err := c.call(c.ctx, target, http.MethodPost, "/v1/jobs/"+j.id+"/restore", body, hdr)
	if err != nil {
		c.cfg.Logger.Warn("failover restore failed", "job", j.id, "target", target, "err", err)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		c.cfg.Logger.Warn("failover restore rejected", "job", j.id, "target", target, "status", resp.StatusCode)
		return
	}
	c.mu.Lock()
	j.peer = target
	c.mu.Unlock()
	end := c.cfg.Clock()
	c.cfg.Obs.Add(obs.DispatchFailovers, 1)
	if c.cfg.Obs.Enabled() {
		c.cfg.Obs.Span(obs.SpanFailover, start.UnixNano(), end.UnixNano())
	}
	c.cfg.Logger.Info("job failed over", "job", j.id, "from", oldPeer, "to", target)
}

// pruneExpired drops terminal jobs past their TTL.
func (c *Coordinator) pruneExpired() {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, j := range c.jobs {
		if j.terminal && now.Sub(j.finished) >= c.cfg.TTL {
			delete(c.jobs, id)
		}
	}
}

// pollPass refreshes every tracked non-terminal job's status, to catch
// completion. It is one status call per job; checkpoints travel from the
// owner to its replica target, never through the coordinator.
func (c *Coordinator) pollPass() {
	c.mu.Lock()
	var live []*remoteJob
	for _, j := range c.jobs {
		if !j.terminal && !j.synthetic {
			live = append(live, j)
		}
	}
	c.mu.Unlock()
	for _, j := range live {
		if j.local {
			c.pollLocal(j)
		} else {
			c.pollJob(j)
		}
	}
}

// pollLocal checks a degraded-mode job against the embedded fallback
// service — no HTTP involved.
func (c *Coordinator) pollLocal(j *remoteJob) {
	job, ok := c.cfg.Local.Get(j.id)
	if !ok {
		return
	}
	st, _, _ := job.Snapshot()
	if st.State.Terminal() {
		st.Degraded = true
		c.completeJob(j, &st)
	}
}

func (c *Coordinator) pollJob(j *remoteJob) {
	c.mu.Lock()
	peer := j.peer
	c.mu.Unlock()
	if c.isDown(peer) {
		return // failover path owns it now
	}
	var st service.Status
	if err := c.getJSON(c.ctx, peer, "/v1/jobs/"+j.id, &st); err != nil {
		return // transient, or the health loop is about to notice
	}
	if st.State.Terminal() {
		c.completeJob(j, &st)
	}
}

// completeJob records a terminal status: publishes a successful output to
// the coordinator cache, releases the digest flight, and feeds the
// duration EWMA behind the cluster Retry-After hint.
func (c *Coordinator) completeJob(j *remoteJob, st *service.Status) {
	c.mu.Lock()
	if j.terminal {
		c.mu.Unlock()
		return
	}
	j.terminal = true
	if reflect.DeepEqual(st.Spec, j.spec) {
		// The worker echoes the submitted spec: keep one copy for the TTL.
		st.Spec = j.spec
	}
	j.final = st
	j.finished = c.cfg.Clock()
	if st.StartedAt != nil && st.FinishedAt != nil {
		if d := st.FinishedAt.Sub(*st.StartedAt).Seconds(); d > 0 {
			c.ewma.Update(d)
		}
	}
	c.mu.Unlock()
	if st.State == service.StateSucceeded && c.cfg.Cache != nil {
		if data, err := json.Marshal(st.Output); err == nil {
			c.cfg.Cache.Put(j.digest, data)
		}
	}
	c.flights.End(j.digest, j.id)
}

// errBreakerOpen marks a call refused locally by an open circuit breaker.
var errBreakerOpen = errors.New("dispatch: circuit breaker open")

// breaker returns the circuit breaker guarding peer, one of the ring's
// peers.
func (c *Coordinator) breaker(peer string) *Breaker {
	return c.breakers[peer]
}

// backoffDelay is the wait before retry attempt i (1-based): capped
// exponential from 100 ms with ±50% jitter, so a burst of polls against a
// flapping peer does not retry in lockstep.
func backoffDelay(i int) time.Duration {
	d := 100 * time.Millisecond << (i - 1)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cancelBody ties an attempt's timeout context to the response body: the
// caller's Close releases the context's timer along with the connection.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// attempt performs a single breaker-gated, timeout-bounded HTTP exchange
// with peer. A transport-level failure feeds the breaker; an HTTP error
// status does not (the peer answered — it is alive and routable).
func (c *Coordinator) attempt(ctx context.Context, peer, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	br := c.breaker(peer)
	if !br.Allow() {
		c.cfg.Obs.Add(obs.DispatchBreakerShortCircuits, 1)
		return nil, fmt.Errorf("%w: %s", errBreakerOpen, peer)
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, peer+path, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		cancel()
		if br.Failure() {
			c.cfg.Obs.Add(obs.DispatchBreakerOpens, 1)
			c.cfg.Logger.Warn("circuit breaker opened", "peer", peer, "err", err)
		}
		return nil, err
	}
	br.Success()
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// call performs one logical coordinator→peer exchange: up to
// Config.CallAttempts breaker-gated attempts, each bounded by
// AttemptTimeout, with capped jittered backoff between them. The body
// bytes are re-read per attempt. A breaker refusal ends the call at once —
// retrying against a peer known dead only stalls the caller.
func (c *Coordinator) call(ctx context.Context, peer, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	var lastErr error
	for i := 0; i < c.cfg.CallAttempts; i++ {
		if i > 0 {
			c.cfg.Obs.Add(obs.DispatchRetries, 1)
			if err := sleepCtx(ctx, backoffDelay(i)); err != nil {
				return nil, err
			}
		}
		resp, err := c.attempt(ctx, peer, method, path, body, hdr)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, errBreakerOpen) || ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// getJSON fetches peer+path through the retrying call path and decodes a
// JSON body; non-200 is an error.
func (c *Coordinator) getJSON(ctx context.Context, peer, path string, v any) error {
	resp, err := c.call(ctx, peer, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("dispatch: GET %s%s: status %d", peer, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// replicaTarget picks a job's checkpoint-replica target: the first healthy
// distinct peer after owner in ring-successor order from the job's
// placement key — exactly the peer a failover would land on, so the
// replica is already where the job goes next. Empty when replication is
// off or the ring has no second peer up.
func (c *Coordinator) replicaTarget(placement, owner string) string {
	if !c.cfg.Replicate {
		return ""
	}
	for _, p := range c.ring.Owners(placement) {
		if p != owner && !c.isDown(p) {
			return p
		}
	}
	return ""
}

// retryAfterHint is the cluster-wide analogue of the worker's hint:
// expected drain time of the tracked in-flight jobs across the healthy
// worker pool.
func (c *Coordinator) retryAfterHint() int {
	c.mu.Lock()
	inflight := 0
	for _, j := range c.jobs {
		if !j.terminal {
			inflight++
		}
	}
	ewma := c.ewma.Value()
	c.mu.Unlock()
	workers := len(c.HealthyPeers()) * c.cfg.WorkersPerPeer
	return service.RetryAfterSeconds(inflight, workers, ewma)
}

// track registers a job the coordinator just placed (or answered from
// cache) and takes the digest flight slot if it is free.
func (c *Coordinator) track(j *remoteJob) {
	c.mu.Lock()
	c.jobs[j.id] = j
	c.mu.Unlock()
	if !j.terminal {
		c.flights.Begin(j.digest, j.id)
	}
}

// lookup returns the tracked job for id, if any.
func (c *Coordinator) lookup(id string) (*remoteJob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// randomID mints a fresh 16-hex-char job ID for cache-answered
// submissions, the same shape workers mint.
func randomID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic("dispatch: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
