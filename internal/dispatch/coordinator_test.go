package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobic/internal/cache"
	"mobic/internal/experiment"
	"mobic/internal/harness"
	"mobic/internal/obs"
	"mobic/internal/service"
	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// digestCollector taps every simulation a runner materializes and keeps a
// canonical trace digest per (algorithm, tx range, seed) cell — the oracle
// proving a failed-over run executed exactly the unfinished cells, with
// exactly the behaviour of an uninterrupted run.
type digestCollector struct {
	mu sync.Mutex
	ds map[string]*harness.Digester
}

func newDigestCollector() *digestCollector {
	return &digestCollector{ds: make(map[string]*harness.Digester)}
}

func (c *digestCollector) mutate(cfg *simnet.Config) {
	key := fmt.Sprintf("%s|%g|%d", cfg.Algorithm.Name, cfg.TxRange, cfg.Seed)
	d := harness.NewDigester()
	c.mu.Lock()
	c.ds[key] = d
	c.mu.Unlock()
	prev := cfg.Observer
	cfg.Observer = func(ev trace.Event) {
		d.Observe(ev)
		if prev != nil {
			prev(ev)
		}
	}
}

func (c *digestCollector) sums() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.ds))
	for k, d := range c.ds {
		out[k] = d.Sum()
	}
	return out
}

// failoverSweep is a 4-cell sweep slow enough to kill a worker in the
// middle of: one algorithm, four transmission ranges, one seed each.
func failoverSweep() service.JobSpec {
	return service.JobSpec{
		Seeds: 1,
		Sweep: &service.SweepSpec{
			Scenario:   service.ScenarioSpec{N: 150, Duration: 300, Warmup: 5},
			Algorithms: []string{"mobic"},
			TxRanges:   []float64{60, 100, 140, 180},
		},
	}
}

// worker is one in-process mobicd worker: a durable service on its own
// data dir behind an httptest server.
type worker struct {
	svc *service.Service
	srv *httptest.Server
	col *digestCollector
	reg *obs.Registry
}

func newWorker(t *testing.T) *worker {
	return newWorkerCfg(t, nil)
}

// replicated is the newWorkerCfg mutation for a worker that streams its
// jobs' checkpoints to the replica target a coordinator names.
func replicated(cfg *service.Config) {
	cfg.Replicate = true
	cfg.ReplicaFlushEvery = 10 * time.Millisecond
}

// newWorkerCfg builds a worker whose service config was run through mutate
// (replication knobs, timers) before opening.
func newWorkerCfg(t *testing.T, mutate func(*service.Config)) *worker {
	t.Helper()
	col := newDigestCollector()
	reg := obs.NewRegistry()
	cfg := service.Config{
		DataDir: t.TempDir(),
		Workers: 1,
		Runner:  experiment.Runner{Seeds: 1, Workers: 1, Mutate: col.mutate},
		Obs:     reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := service.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	srv := httptest.NewServer(service.NewHandler(svc))
	w := &worker{svc: svc, srv: srv, col: col, reg: reg}
	t.Cleanup(func() { w.kill() })
	return w
}

// kill abandons the worker abruptly: the listener closes and in-flight
// jobs are aborted, the closest an httptest server gets to SIGKILL.
func (w *worker) kill() {
	w.srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = w.svc.Shutdown(ctx)
}

// newCluster builds a coordinator over the given workers with test-fast
// timers and a fresh obs registry, serving on an httptest server.
func newCluster(t *testing.T, workers []*worker) (*Coordinator, *httptest.Server, *obs.Registry) {
	return newClusterCfg(t, workers, nil)
}

// newClusterCfg is newCluster with the coordinator config run through
// mutate first (chaos transports, replication, breaker knobs).
func newClusterCfg(t *testing.T, workers []*worker, mutate func(*Config)) (*Coordinator, *httptest.Server, *obs.Registry) {
	t.Helper()
	peers := make([]string, len(workers))
	for i, w := range workers {
		peers[i] = w.srv.URL
	}
	reg := obs.NewRegistry()
	c, err := cache.Open(cache.Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Peers:       peers,
		HealthEvery: 40 * time.Millisecond,
		PollEvery:   20 * time.Millisecond,
		FailAfter:   2,
		Cache:       c,
		Obs:         reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	srv := httptest.NewServer(NewHandler(coord))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	return coord, srv, reg
}

func submitSpec(t *testing.T, url string, spec service.JobSpec) (service.Status, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, b)
	}
	return st, resp
}

func awaitTerminal(t *testing.T, url, id string, within time.Duration) service.Status {
	t.Helper()
	st, ok := pollTerminal(url, id, within)
	if !ok {
		t.Fatalf("job %s not terminal within %v", id, within)
	}
	return st
}

// pollTerminal polls url's status for job id until it is terminal or
// within elapses; ok reports which.
func pollTerminal(url, id string, within time.Duration) (st service.Status, ok bool) {
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.State.Terminal() {
				return st, true
			}
		}
		if time.Now().After(deadline) {
			return st, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFailoverResumesAndCaches is the subsystem acceptance test: a
// replicating coordinator over two replicating workers places a sweep, the
// owning worker is killed after it has streamed at least one checkpoint to
// its ring successor, the job fails over to that survivor and resumes from
// the replica, and the final output is digest-identical to an
// uninterrupted reference run. A resubmission of the same spec is then
// answered from the coordinator's result cache without touching any worker.
func TestFailoverResumesAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover e2e")
	}

	// Reference: the same sweep, uninterrupted, no cluster.
	refJSON, refDigests := referenceRun(t)

	workers := []*worker{newWorkerCfg(t, replicated), newWorkerCfg(t, replicated)}
	coord, srv, reg := newClusterCfg(t, workers, func(cfg *Config) { cfg.Replicate = true })

	st, _ := submitSpec(t, srv.URL, failoverSweep())
	coord.mu.Lock()
	j := coord.jobs[st.ID]
	coord.mu.Unlock()
	if j == nil {
		t.Fatal("submitted job not tracked")
	}
	coord.mu.Lock()
	owner := j.peer
	coord.mu.Unlock()
	var victim, survivor *worker
	for _, w := range workers {
		if w.srv.URL == owner {
			victim = w
		} else {
			survivor = w
		}
	}
	if victim == nil || survivor == nil {
		t.Fatalf("owner %q is not one of the workers", owner)
	}

	// Wait until the owner has streamed at least one checkpoint to the
	// survivor, its ring successor: the replica the failover resumes from.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, cps, ok := survivor.svc.Replicas().Lookup(st.ID)
		if ok && len(cps) >= 1 {
			break
		}
		coord.mu.Lock()
		terminal := j.terminal
		coord.mu.Unlock()
		if terminal {
			t.Fatal("sweep finished before a checkpoint was replicated; make failoverSweep slower")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint replicated in 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the owner; keep the survivor.
	victim.kill()

	// The job must finish — failed over, resumed, digest-identical.
	fin := awaitTerminal(t, srv.URL, st.ID, 60*time.Second)
	if fin.State != service.StateSucceeded {
		t.Fatalf("failed-over job: %s (%s)", fin.State, fin.Error)
	}
	finJSON, err := json.Marshal(fin.Output)
	if err != nil {
		t.Fatal(err)
	}
	if string(finJSON) != refJSON {
		t.Errorf("failed-over output differs from uninterrupted reference:\nref: %s\ngot: %s", refJSON, finJSON)
	}
	if got := reg.Counter(obs.DispatchFailovers); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if got := survivor.reg.Counter(obs.ReplRestores); got != 1 {
		t.Errorf("survivor ReplRestores = %d, want 1", got)
	}

	// The survivor resumed: it simulated only unfinished cells, and those
	// traces are byte-equal to the reference run's.
	survived := survivor.col.sums()
	if len(survived) == 0 || len(survived) >= 4 {
		t.Errorf("survivor simulated %d cells, want 1..3 (resume, not re-run)", len(survived))
	}
	for key, sum := range survived {
		if refDigests[key] == "" {
			t.Errorf("survivor simulated unexpected cell %s", key)
		} else if sum != refDigests[key] {
			t.Errorf("cell %s: trace digest mismatch after failover", key)
		}
	}

	// Wait for the coordinator's own poll loop to internalize the
	// completion (cache write + flight release); the status proxy above can
	// observe the worker's terminal state a poll interval earlier.
	deadline = time.Now().Add(10 * time.Second)
	for {
		coord.mu.Lock()
		done := coord.jobs[st.ID] != nil && coord.jobs[st.ID].terminal
		coord.mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never marked the job terminal")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Identical resubmission: answered from the coordinator cache, no
	// worker involved, terminal on arrival.
	st2, _ := submitSpec(t, srv.URL, failoverSweep())
	if st2.State != service.StateSucceeded {
		t.Fatalf("resubmission state = %s, want succeeded from cache", st2.State)
	}
	if st2.ID == st.ID {
		t.Error("cache answer reused the original job ID")
	}
	if got := reg.Counter(obs.CacheHits); got < 1 {
		t.Errorf("cache hits = %d, want >= 1", got)
	}

	// And the hit is visible on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"mobic_cache_hits_total", "mobic_dispatch_failovers_total", "mobic_dispatch_peer_up"} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestCoordinatorProxiesSubmitStatusStream(t *testing.T) {
	workers := []*worker{newWorker(t)}
	_, srv, _ := newCluster(t, workers)

	spec := service.JobSpec{
		Seeds: 1,
		Sweep: &service.SweepSpec{
			Scenario:   service.ScenarioSpec{N: 10, Duration: 5},
			Algorithms: []string{"mobic"},
		},
	}
	st, _ := submitSpec(t, srv.URL, spec)
	fin := awaitTerminal(t, srv.URL, st.ID, 30*time.Second)
	if fin.State != service.StateSucceeded {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}
	if len(fin.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(fin.Cells))
	}

	// Stream (late attach): replays history and ends with the result line.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last service.StreamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "result" || last.Stat == nil || last.Stat.State != service.StateSucceeded {
		t.Fatalf("stream did not end with a succeeded result: %+v", last)
	}
}

func TestCoordinatorRejectsInvalidSpec(t *testing.T) {
	workers := []*worker{newWorker(t)}
	_, srv, _ := newCluster(t, workers)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"seeds":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d, want 400", resp.StatusCode)
	}
}

func TestCoordinatorRetryAfterMerge(t *testing.T) {
	// A fake worker that always sheds with a larger hint than the
	// coordinator's own floor.
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "17")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer shed.Close()

	coord, err := New(Config{Peers: []string{shed.URL}})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	defer coord.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"fig3"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	got := resp.Header.Get("Retry-After")
	if got != "17" {
		t.Fatalf("Retry-After = %q, want %q (max of local and peer hints)", got, "17")
	}

	// The coordinator's own hint smooths job durations like the worker's:
	// 10 s then 20 s with service.EWMAAlpha (0.2) is 12 s per job, so one
	// job over 1 peer × 2 workers waits ceil(12/2) = 6 s (α=0.3 gives 7).
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, secs := range []int{10, 20} {
		end := start.Add(time.Duration(secs) * time.Second)
		coord.completeJob(&remoteJob{id: fmt.Sprintf("done-%d", i), digest: fmt.Sprintf("d%d", i)},
			&service.Status{State: service.StateSucceeded, StartedAt: &start, FinishedAt: &end})
	}
	if got := coord.retryAfterHint(); got != 6 {
		t.Fatalf("cluster Retry-After after 10 s and 20 s jobs = %d, want 6", got)
	}
}

// TestCompleteJobKeepsLeaderFlight checks that a job finishing while
// another job of the same digest leads the flight (a batch sibling, say)
// leaves the leader's slot in place, so identical submits keep attaching.
func TestCompleteJobKeepsLeaderFlight(t *testing.T) {
	coord, err := New(Config{Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	coord.track(&remoteJob{id: "leader", digest: "d"})
	other := &remoteJob{id: "other", digest: "d"}
	coord.track(other)
	coord.completeJob(other, &service.Status{State: service.StateFailed})
	if id, ok := coord.flights.Leader("d"); !ok || id != "leader" {
		t.Fatalf("flight leader after a non-leader finished = %q (%v), want leader", id, ok)
	}
}

func TestCoordinatorReadyRequiresHealthyPeer(t *testing.T) {
	// A peer that never answers /readyz.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	coord, err := New(Config{
		Peers:       []string{dead.URL},
		HealthEvery: 20 * time.Millisecond,
		FailAfter:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	defer coord.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()
	dead.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator stayed ready with every peer down")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And submissions are shed with 503.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"fig3"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no peers: status = %d, want 503", resp.StatusCode)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"7", 7},
		{"0", 0},
		{"-3", 0},
		{"junk", 0},
		{now.Add(10 * time.Second).UTC().Format(http.TimeFormat), 10},
		{now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestCoordinatorCancelAndProbe covers the remaining proxy surfaces:
// /livez, canceling a live proxied job, re-canceling a terminal one,
// status probing for a job submitted directly to a worker behind the
// coordinator's back, and 404s for unknown IDs.
func TestCoordinatorCancelAndProbe(t *testing.T) {
	workers := []*worker{newWorker(t)}
	_, srv, _ := newCluster(t, workers)

	resp, err := http.Get(srv.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("livez = %d, want 200", resp.StatusCode)
	}

	// A sweep slow enough to still be running when the cancel lands.
	st, _ := submitSpec(t, srv.URL, failoverSweep())
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp.StatusCode)
	}
	// Cancellation is asynchronous on the worker; the job must settle as
	// canceled shortly after.
	if got := awaitTerminal(t, srv.URL, st.ID, 30*time.Second); got.State != service.StateCanceled {
		t.Fatalf("post-cancel state = %s, want canceled", got.State)
	}

	// Re-canceling a terminal job keeps answering 200 (idempotent), via
	// either the local final (once the poll loop caught up) or the worker.
	resp, err = http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("re-cancel status = %d, want 200", resp.StatusCode)
	}

	// A job the coordinator never saw: submitted straight to the worker.
	direct, _ := submitSpec(t, workers[0].srv.URL, service.JobSpec{
		Seeds: 1,
		Sweep: &service.SweepSpec{
			Scenario:   service.ScenarioSpec{N: 10, Duration: 5},
			Algorithms: []string{"mobic"},
		},
	})
	awaitTerminal(t, workers[0].srv.URL, direct.ID, 30*time.Second)
	got := awaitTerminal(t, srv.URL, direct.ID, 10*time.Second)
	if got.State != service.StateSucceeded {
		t.Errorf("probed direct job state = %s, want succeeded", got.State)
	}

	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/nope"},
		{http.MethodDelete, "/v1/jobs/nope"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}
