package dispatch

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobic/internal/chaos"
	"mobic/internal/experiment"
	"mobic/internal/obs"
	"mobic/internal/service"
)

// referenceRun executes the failover sweep uninterrupted on a standalone
// service and returns the canonical output JSON plus per-cell trace digests
// — the oracle every chaos run is compared against.
func referenceRun(t *testing.T) (string, map[string]string) {
	t.Helper()
	col := newDigestCollector()
	ref := service.New(service.Config{
		Workers: 1,
		Runner:  experiment.Runner{Seeds: 1, Workers: 1, Mutate: col.mutate},
	})
	ref.Start()
	defer ref.Shutdown(context.Background())
	job, err := ref.Submit(failoverSweep())
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, _, notify := job.Snapshot()
		if st.State.Terminal() {
			if st.State != service.StateSucceeded || len(st.Cells) != 4 {
				t.Fatalf("reference run: %s, %d cells", st.State, len(st.Cells))
			}
			data, err := json.Marshal(st.Output)
			if err != nil {
				t.Fatal(err)
			}
			return string(data), col.sums()
		}
		<-notify
	}
}

// TestChaosReplicationFailoverByteEqual is the chaos acceptance test for
// proactive WAL replication: the job's owner is killed mid-sweep, and the
// ring successor must restore from the checkpoint replica the owner
// streamed to it — finishing with output byte-equal to an undisturbed
// reference run while having simulated only the unfinished cells. The
// sweep arrives as a single submit and as a one-job batch: both leave the
// coordinator through the same ring walk, so both get a replica target.
func TestChaosReplicationFailoverByteEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos e2e")
	}
	refJSON, refDigests := referenceRun(t)
	submits := map[string]func(t *testing.T, url string) string{
		"single": func(t *testing.T, url string) string {
			st, _ := submitSpec(t, url, failoverSweep())
			return st.ID
		},
		"batch": func(t *testing.T, url string) string {
			spec, err := json.Marshal(failoverSweep())
			if err != nil {
				t.Fatal(err)
			}
			resp := postBatchJSON(t, url, "", `{"jobs":[`+string(spec)+`]}`)
			defer resp.Body.Close()
			var br struct {
				Jobs []service.Status `json:"jobs"`
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("batch status %d", resp.StatusCode)
			}
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || len(br.Jobs) != 1 {
				t.Fatalf("batch response: %d jobs, err %v", len(br.Jobs), err)
			}
			return br.Jobs[0].ID
		},
	}
	for name, submit := range submits {
		t.Run(name, func(t *testing.T) {
			replicaFailover(t, submit, refJSON, refDigests)
		})
	}
}

// replicaFailover runs one replicated failover of the sweep that submit
// places through a fresh 2-worker cluster, and checks it against the
// reference run.
func replicaFailover(t *testing.T, submit func(t *testing.T, url string) string, refJSON string, refDigests map[string]string) {
	workers := []*worker{newWorkerCfg(t, replicated), newWorkerCfg(t, replicated)}
	coord, srv, reg := newClusterCfg(t, workers, func(cfg *Config) { cfg.Replicate = true })

	id := submit(t, srv.URL)
	coord.mu.Lock()
	j := coord.jobs[id]
	coord.mu.Unlock()
	if j == nil {
		t.Fatal("submitted job not tracked")
	}
	coord.mu.Lock()
	owner := j.peer
	coord.mu.Unlock()
	var victim, successor *worker
	for _, w := range workers {
		if w.srv.URL == owner {
			victim = w
		} else {
			successor = w
		}
	}
	if victim == nil || successor == nil {
		t.Fatalf("owner %q is not one of the workers", owner)
	}

	// Wait until the owner has streamed at least one checkpoint to its ring
	// successor — the replica a failover will restore from. An owner two
	// cells in with no replica yet is not replicating at all (a batch takes
	// ~10 ms to reach the replica, a cell far longer): kill it then too, so
	// the assertions below say what was lost.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, cps, ok := successor.svc.Replicas().Lookup(id)
		if ok && len(cps) >= 1 {
			break
		}
		if job, ok := victim.svc.Get(id); ok {
			if st, _, _ := job.Snapshot(); st.Done >= 2 {
				break
			}
		}
		coord.mu.Lock()
		terminal := j.terminal
		coord.mu.Unlock()
		if terminal {
			t.Fatal("sweep finished before a checkpoint was replicated; make failoverSweep slower")
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica precondition not reached in 30s (replica ok=%v cps=%d)", ok, len(cps))
		}
		time.Sleep(5 * time.Millisecond)
	}

	victim.kill()

	fin := awaitTerminal(t, srv.URL, id, 60*time.Second)
	if fin.State != service.StateSucceeded {
		t.Fatalf("failed-over job: %s (%s)", fin.State, fin.Error)
	}
	finJSON, err := json.Marshal(fin.Output)
	if err != nil {
		t.Fatal(err)
	}
	if string(finJSON) != refJSON {
		t.Errorf("replica-resumed output differs from uninterrupted reference:\nref: %s\ngot: %s", refJSON, finJSON)
	}

	// The resume came from the replica: the coordinator ships nothing.
	if got := reg.Counter(obs.DispatchFailovers); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if got := successor.reg.Counter(obs.ReplRestores); got != 1 {
		t.Errorf("successor ReplRestores = %d, want 1", got)
	}

	// Byte-equal resume proof: the successor simulated only the unfinished
	// cells, each with exactly the reference run's trace digest.
	survived := successor.col.sums()
	if len(survived) == 0 || len(survived) >= 4 {
		t.Errorf("successor simulated %d cells, want 1..3 (resume, not re-run)", len(survived))
	}
	for key, sum := range survived {
		if refDigests[key] == "" {
			t.Errorf("successor simulated unexpected cell %s", key)
		} else if sum != refDigests[key] {
			t.Errorf("cell %s: trace digest mismatch after replica resume", key)
		}
	}
}

// TestChaosNoReplicationLosesProgress pins the failure mode replication
// exists to fix: with replication off, killing the owner loses every
// completed cell — the survivor re-simulates the whole sweep from scratch.
func TestChaosNoReplicationLosesProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos e2e")
	}
	workers := []*worker{newWorker(t), newWorker(t)}
	coord, srv, _ := newCluster(t, workers)

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

	// Wait for the owner to finish at least one cell, probing it directly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(owner + "/v1/jobs/" + st.ID)
		if err == nil {
			var ost service.Status
			err = json.NewDecoder(resp.Body).Decode(&ost)
			resp.Body.Close()
			if err == nil && ost.State.Terminal() {
				t.Fatal("sweep finished before the kill; make failoverSweep slower")
			}
			if err == nil && ost.Done >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("owner completed no cell in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	victim.kill()

	fin := awaitTerminal(t, srv.URL, st.ID, 90*time.Second)
	if fin.State != service.StateSucceeded {
		t.Fatalf("failed-over job: %s (%s)", fin.State, fin.Error)
	}
	// Progress was demonstrably lost: no replica, so the survivor had to
	// simulate all four cells over again.
	if got := len(survivor.col.sums()); got != 4 {
		t.Errorf("survivor simulated %d cells, want 4 (full re-run without replication)", got)
	}
}

// TestCallRetriesAndBreaker exercises the bounded-retry call path against
// a chaos transport: transient resets are retried with backoff, persistent
// resets trip the per-peer breaker, an open breaker short-circuits without
// touching the network, and a half-open probe closes it again.
func TestCallRetriesAndBreaker(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{}`)
	}))
	defer peer.Close()

	// First two hits on /flaky reset; /dead always resets.
	inj := chaos.New(chaos.MustParse("seed 9\nhttp GET */flaky nth=1..2 reset\nhttp GET */dead reset\n"))
	reg := obs.NewRegistry()
	coord, err := New(Config{
		Peers:            []string{peer.URL},
		Client:           &http.Client{Timeout: time.Second, Transport: inj.RoundTripper(nil)},
		CallAttempts:     3,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		Obs:              reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): the call path alone is under test.

	var v struct{}
	if err := coord.getJSON(context.Background(), peer.URL, "/flaky", &v); err != nil {
		t.Fatalf("flaky call did not recover via retries: %v", err)
	}
	if got := reg.Counter(obs.DispatchRetries); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if st := coord.breaker(peer.URL).State(); st != BreakerClosed {
		t.Errorf("breaker after recovered call = %v, want closed", st)
	}

	// Three attempts against /dead all reset: the third trips the breaker.
	if err := coord.getJSON(context.Background(), peer.URL, "/dead", &v); err == nil {
		t.Fatal("dead call unexpectedly succeeded")
	}
	if got := reg.Counter(obs.DispatchBreakerOpens); got != 1 {
		t.Errorf("breaker opens = %d, want 1", got)
	}
	if st := coord.breaker(peer.URL).State(); st != BreakerOpen {
		t.Errorf("breaker after persistent failure = %v, want open", st)
	}

	// While open, calls fail locally — no attempt reaches the transport.
	fired := inj.Fired()
	err = coord.getJSON(context.Background(), peer.URL, "/flaky", &v)
	if err == nil || !strings.Contains(err.Error(), "circuit breaker open") {
		t.Fatalf("open-breaker call error = %v, want circuit breaker open", err)
	}
	if got := reg.Counter(obs.DispatchBreakerShortCircuits); got < 1 {
		t.Errorf("short circuits = %d, want >= 1", got)
	}
	if inj.Fired() != fired {
		t.Error("short-circuited call still reached the transport")
	}

	// After the cooldown a half-open probe goes through (the flaky rule is
	// exhausted by now) and the breaker closes.
	time.Sleep(60 * time.Millisecond)
	if err := coord.getJSON(context.Background(), peer.URL, "/flaky", &v); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := coord.breaker(peer.URL).State(); st != BreakerClosed {
		t.Errorf("breaker after successful probe = %v, want closed", st)
	}
}

// TestDegradedModeRunsLocally covers graceful degradation: with every peer
// down and an embedded fallback service configured, submissions run
// locally with "degraded": true, /readyz stays 200 (status "degraded"),
// streams serve from the local event log, and the degraded counter and
// breaker-state families land on /metrics.
func TestDegradedModeRunsLocally(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	local := service.New(service.Config{
		Workers: 1,
		Runner:  experiment.Runner{Seeds: 1, Workers: 1},
	})
	local.Start()
	defer local.Shutdown(context.Background())

	reg := obs.NewRegistry()
	coord, err := New(Config{
		Peers:        []string{dead.URL},
		HealthEvery:  20 * time.Millisecond,
		PollEvery:    20 * time.Millisecond,
		FailAfter:    1,
		CallAttempts: 1,
		Local:        local,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	defer coord.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	// Wait for the health loop to mark the only peer down.
	deadline := time.Now().Add(5 * time.Second)
	for len(coord.HealthyPeers()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead peer never marked down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Degraded, not down: /readyz stays 200.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded readyz = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Errorf("readyz body does not mention degraded mode: %s", body)
	}

	spec := service.JobSpec{
		Seeds: 1,
		Sweep: &service.SweepSpec{
			Scenario:   service.ScenarioSpec{N: 10, Duration: 5},
			Algorithms: []string{"mobic"},
		},
	}
	st, _ := submitSpec(t, srv.URL, spec)
	if !st.Degraded {
		t.Error("degraded submit status not flagged degraded")
	}
	fin := awaitTerminal(t, srv.URL, st.ID, 30*time.Second)
	if fin.State != service.StateSucceeded {
		t.Fatalf("local job: %s (%s)", fin.State, fin.Error)
	}
	if !fin.Degraded {
		t.Error("terminal status of a local job not flagged degraded")
	}
	if got := reg.Counter(obs.DispatchDegraded); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}

	// The stream serves from the local event log and ends with a degraded
	// result line.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last service.StreamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "result" || last.Stat == nil || !last.Stat.Degraded {
		t.Fatalf("stream did not end with a degraded result: %+v", last)
	}

	// Breaker-state and degraded families are exported.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"mobic_dispatch_breaker_state", "mobic_dispatch_degraded_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestProxyErrorPaths drives the dispatch proxy's failure branches with a
// chaos transport: a status proxy to an unreachable worker answers 502, a
// stream cut mid-body reconnects and still delivers the result line, and a
// failover with every successor dead leaves the job tracked (retried each
// health pass) rather than dropped.
func TestProxyErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second proxy e2e")
	}
	workers := []*worker{newWorker(t), newWorker(t)}
	// Cut the first stream attempt after 300 body bytes.
	inj := chaos.New(chaos.MustParse("seed 3\nbody GET */stream nth=1 cut=300\n"))
	coord, srv, _ := newClusterCfg(t, workers, func(cfg *Config) {
		cfg.Client = &http.Client{Timeout: 2 * time.Second, Transport: inj.RoundTripper(nil)}
		cfg.PollEvery = 50 * time.Millisecond
		cfg.CallAttempts = 2
		// Slow health loop: the workers stay "healthy" after the kill below,
		// so the proxy paths (not the failover path) see the dead peers.
		cfg.HealthEvery = time.Hour
	})

	st, _ := submitSpec(t, srv.URL, failoverSweep())

	// Stream with a mid-body cut: the proxy must reconnect and replay until
	// the terminal line arrives.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if inj.Fired() < 1 {
		t.Error("stream cut rule never fired")
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last service.StreamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last stream line unparseable after reconnect: %v", err)
	}
	if last.Type != "result" || last.Stat == nil || last.Stat.State != service.StateSucceeded {
		t.Fatalf("reconnected stream did not end with a succeeded result: %+v", last)
	}

	// A second, still-running job — then kill both workers. The health loop
	// is parked, so the coordinator still believes they are healthy: a
	// status proxy must surface 502 after bounded retries, not hang.
	slow := failoverSweep()
	slow.Sweep.Scenario.N = 151 // distinct digest: don't hit the flight/cache
	st2, _ := submitSpec(t, srv.URL, slow)
	for _, w := range workers {
		w.kill()
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status proxy to dead worker = %d, want 502", resp.StatusCode)
	}

	// A fresh submit now walks every (dead) peer and, with no Local
	// fallback configured, sheds 503.
	body2, _ := json.Marshal(service.JobSpec{Experiment: "fig3"})
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body2)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with all peers dead = %d, want 503", resp.StatusCode)
	}

	// Mark the peers down and let failover run: with every successor dead
	// the in-flight job must stay tracked for the next pass, not be
	// dropped.
	coord.mu.Lock()
	for _, p := range coord.ring.Peers() {
		coord.peerDown[p] = true
	}
	tracked := coord.jobs[st2.ID]
	coord.mu.Unlock()
	if tracked == nil {
		t.Fatal("second job not tracked")
	}
	coord.failoverStranded()
	coord.mu.Lock()
	_, still := coord.jobs[st2.ID]
	stillTerminal := coord.jobs[st2.ID] != nil && coord.jobs[st2.ID].terminal
	coord.mu.Unlock()
	if !still || stillTerminal {
		t.Fatal("stranded job dropped or spuriously completed with no successor available")
	}
}
