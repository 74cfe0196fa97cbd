package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"mobic/internal/chaos"
	"mobic/internal/experiment"
	"mobic/internal/service"
)

// TestChaosSoak is the sustained-fault gate run by scripts/check.sh under
// the race detector: a replicated three-worker cluster takes ~10 seconds
// of submissions while a probabilistic chaos schedule resets submits,
// fails checkpoint-replication batches, cuts stream bodies and injects
// latency — and a worker is killed outright mid-soak. Every fourth soak job
// is awaited through the coordinator's stream, whose upstream the cut rule
// tears, and must deliver its result line exactly once; the rest are
// polled. Every job must still converge to success, and the long-running
// job that straddles the kill must finish byte-equal to an uninterrupted
// reference run.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("10s chaos soak")
	}
	refJSON, _ := referenceRun(t)

	// Probabilistic but seeded: the same soak replays the same fault
	// sequence against the same operation order. The coordinator's client
	// and the workers' replication client share the schedule, so failed
	// replica batches (retried by the replicator) press on the path that
	// carries a failover's progress.
	inj := chaos.New(chaos.MustParse("seed 1234\n" +
		"http POST */jobs prob=0.1 reset\n" +
		"http POST */replica/* prob=0.25 error\n" +
		"body GET */stream prob=0.5 cut=256\n" +
		"http GET * prob=0.05 latency=10ms\n"))
	chaosReplicated := func(cfg *service.Config) {
		replicated(cfg)
		cfg.ReplicaClient = &http.Client{Timeout: 2 * time.Second, Transport: inj.RoundTripper(nil)}
		// Two run slots, as mobicd's default: with one, the restored victim
		// sweep (up to three N=150 cells, ~20 s under -race) holds its new
		// owner's only slot, and a soak job placed there queues behind it
		// past the 30 s deadline whenever the host is loaded.
		cfg.Workers = 2
	}
	workers := []*worker{
		newWorkerCfg(t, chaosReplicated),
		newWorkerCfg(t, chaosReplicated),
		newWorkerCfg(t, chaosReplicated),
	}

	// A local fallback absorbs the (unlikely) submit walk where chaos
	// resets every peer's single attempt.
	local := service.New(service.Config{
		Workers: 1,
		Runner:  experiment.Runner{Seeds: 1, Workers: 1},
	})
	local.Start()
	defer local.Shutdown(context.Background())

	coord, srv, _ := newClusterCfg(t, workers, func(cfg *Config) {
		cfg.Replicate = true
		cfg.Client = &http.Client{Timeout: 2 * time.Second, Transport: inj.RoundTripper(nil)}
		cfg.Local = local
		cfg.BreakerCooldown = 200 * time.Millisecond
	})

	// The straddling job: a slow sweep whose owner dies under it.
	victim, _ := submitSpec(t, srv.URL, failoverSweep())
	coord.mu.Lock()
	owner := ""
	if j := coord.jobs[victim.ID]; j != nil {
		owner = j.peer
	}
	coord.mu.Unlock()
	if owner == "" {
		t.Fatal("victim job not tracked on a peer")
	}

	// Kill the owner as soon as it has committed work (probing it directly
	// — the chaos schedule sits only on the coordinator's client).
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(owner + "/v1/jobs/" + victim.ID)
		if err == nil {
			var ost service.Status
			err = json.NewDecoder(resp.Body).Decode(&ost)
			resp.Body.Close()
			if err == nil && (ost.Done >= 1 || ost.State.Terminal()) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("victim owner completed no cell in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, w := range workers {
		if w.srv.URL == owner {
			w.kill()
		}
	}

	// Churn distinct quick sweeps through the degraded cluster for the
	// soak window; each must converge despite resets, latency and the
	// mid-soak failover running underneath.
	soakUntil := time.Now().Add(10 * time.Second)
	submitted, streamed := 0, 0
	for n := 20; time.Now().Before(soakUntil); n++ {
		spec := service.JobSpec{
			Seeds: 1,
			Sweep: &service.SweepSpec{
				Scenario:   service.ScenarioSpec{N: n, Duration: 5},
				Algorithms: []string{"mobic"},
			},
		}
		st, _ := submitSpec(t, srv.URL, spec)
		var fin service.Status
		if submitted%4 == 0 {
			var results int
			var err error
			fin, results, err = streamTerminal(srv.URL, st.ID, 30*time.Second)
			if err != nil || results != 1 {
				logStuckJob(t, coord, st.ID)
				t.Fatalf("soak job %d (n=%d): %s streamed %d result lines (err %v), want exactly 1",
					submitted, n, st.ID, results, err)
			}
			streamed++
		} else {
			var ok bool
			if fin, ok = pollTerminal(srv.URL, st.ID, 30*time.Second); !ok {
				logStuckJob(t, coord, st.ID)
				t.Fatalf("soak job %d (n=%d): %s not terminal within 30s", submitted, n, st.ID)
			}
		}
		if fin.State != service.StateSucceeded {
			t.Fatalf("soak job %d (n=%d): %s (%s)", submitted, n, fin.State, fin.Error)
		}
		submitted++
	}

	// The job that straddled the kill converged byte-equal to the
	// uninterrupted reference.
	fin := awaitTerminal(t, srv.URL, victim.ID, 60*time.Second)
	if fin.State != service.StateSucceeded {
		t.Fatalf("victim job: %s (%s)", fin.State, fin.Error)
	}
	finJSON, err := json.Marshal(fin.Output)
	if err != nil {
		t.Fatal(err)
	}
	if string(finJSON) != refJSON {
		t.Errorf("victim output diverged from reference after chaotic failover:\nref: %s\ngot: %s", refJSON, finJSON)
	}

	if inj.Fired() < 1 {
		t.Fatal("chaos schedule never fired during the soak")
	}
	fired := inj.FiredByRule()
	if fired[1] < 1 { // the */replica/* rule
		t.Fatal("no replication batch failed during the soak")
	}
	if fired[2] < 1 { // the */stream rule
		t.Fatalf("no stream was cut across %d streamed soak jobs", streamed)
	}
	t.Logf("soak: %d jobs converged (%d streamed), %d faults injected (per rule %v)",
		submitted, streamed, inj.Fired(), fired)
}

// streamTerminal awaits a job through the coordinator's NDJSON stream,
// reading it to the end within timeout. It returns the status the result
// line carries and the number of result lines the stream delivered.
func streamTerminal(base, id string, timeout time.Duration) (service.Status, int, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return service.Status{}, 0, err
	}
	defer resp.Body.Close()
	var (
		fin     service.Status
		results int
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fin, results, fmt.Errorf("torn stream line %q: %w", sc.Bytes(), err)
		}
		if ev.Type == "result" {
			results++
			if ev.Stat != nil {
				fin = *ev.Stat
			}
		}
	}
	return fin, results, sc.Err()
}

// logStuckJob logs what the coordinator knows about a job that missed its
// deadline — its peer, terminal flag, the peer's down flag and breaker
// state — and the owning peer's own view of the job.
func logStuckJob(t *testing.T, coord *Coordinator, id string) {
	t.Helper()
	coord.mu.Lock()
	j := coord.jobs[id]
	if j == nil {
		coord.mu.Unlock()
		t.Logf("stuck job %s: not tracked by the coordinator", id)
		return
	}
	peer, terminal, local, down := j.peer, j.terminal, j.local, coord.peerDown[j.peer]
	coord.mu.Unlock()
	if local {
		t.Logf("stuck job %s: running on the coordinator's local fallback", id)
		return
	}
	t.Logf("stuck job %s: peer=%s terminal=%v peer_down=%v breaker=%s", id, peer, terminal, down, coord.breaker(peer).State())
	resp, err := http.Get(peer + "/v1/jobs/" + id)
	if err != nil {
		t.Logf("stuck job %s: owner status: %v", id, err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	t.Logf("stuck job %s: owner status %d: %s", id, resp.StatusCode, body)
}
