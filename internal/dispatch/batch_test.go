package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobic/internal/experiment"
	"mobic/internal/fair"
	"mobic/internal/obs"
	"mobic/internal/service"
)

// fairRegistry builds the degraded-test tenant table: one fully-shed
// tenant alongside the default.
func fairRegistry() (*fair.Registry, error) {
	return fair.NewRegistry(nil, []fair.Tenant{{Name: "blocked", Weight: 1, MaxQueued: -1}}, false)
}

// postBatchJSON posts a raw batch body through the coordinator.
func postBatchJSON(t *testing.T, url, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs:batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Mobic-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// smallSweep is a fast 1-cell sweep uniquified by seed.
func smallSweep(seed uint64) string {
	return fmt.Sprintf(`{"sweep":{"scenario":{"n":10,"duration":30,"warmup":1},"algorithms":["mobic"]},"seeds":1,"base_seed":%d}`, seed)
}

// TestBatchProxy drives POST /v1/jobs:batch through the coordinator: the
// batch is placed whole on one ring owner, every returned job is tracked
// (status polls through the proxy work), and invalid batches 400 at the
// coordinator without touching a worker.
func TestBatchProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second batch e2e")
	}
	workers := []*worker{newWorker(t), newWorker(t)}
	_, srv, _ := newCluster(t, workers)

	resp := postBatchJSON(t, srv.URL, "", fmt.Sprintf(`{"jobs":[%s,%s,%s]}`,
		smallSweep(1), smallSweep(2), smallSweep(3)))
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("batch via coordinator: status %d: %s", resp.StatusCode, b)
	}
	var br struct {
		Jobs []service.Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Jobs) != 3 {
		t.Fatalf("batch returned %d statuses, want 3", len(br.Jobs))
	}
	// Each sibling is tracked individually: status polls proxy through.
	for _, st := range br.Jobs {
		fin := awaitTerminal(t, srv.URL, st.ID, 60*time.Second)
		if fin.State != service.StateSucceeded {
			t.Fatalf("batch job %s finished %s", st.ID, fin.State)
		}
	}

	// Coordinator-side validation: bad batches never reach a worker.
	for name, body := range map[string]string{
		"invalid-spec": `{"jobs":[{"experiment":"nope"}]}`,
		"empty":        `{"jobs":[]}`,
		"not-json":     `nope`,
	} {
		resp := postBatchJSON(t, srv.URL, "", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestBatchDegradedLocal pins the no-healthy-worker path: the batch runs
// on the embedded fallback service, all-or-none, with degraded statuses;
// a zero-quota tenant's batch sheds with a per-tenant 429 even degraded.
func TestBatchDegradedLocal(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	tenants, err := fairRegistry()
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{
		Workers: 1,
		Runner:  experiment.Runner{Seeds: 1, Workers: 1},
		Tenants: tenants,
	})
	local.Start()
	defer local.Shutdown(context.Background())

	coord, err := New(Config{
		Peers:        []string{dead.URL},
		HealthEvery:  20 * time.Millisecond,
		PollEvery:    20 * time.Millisecond,
		FailAfter:    1,
		CallAttempts: 1,
		Local:        local,
		Obs:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	defer coord.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for len(coord.HealthyPeers()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead peer never marked down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp := postBatchJSON(t, srv.URL, "", fmt.Sprintf(`{"jobs":[%s,%s]}`, smallSweep(10), smallSweep(11)))
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("degraded batch: status %d: %s", resp.StatusCode, b)
	}
	var br struct {
		Jobs []service.Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Jobs) != 2 {
		t.Fatalf("degraded batch returned %d statuses, want 2", len(br.Jobs))
	}
	for _, st := range br.Jobs {
		if !st.Degraded {
			t.Errorf("degraded batch job %s not flagged degraded", st.ID)
		}
	}

	// A fully-shed tenant's batch 429s with a Retry-After even in
	// degraded mode — quotas are enforced by the local service too.
	resp = postBatchJSON(t, srv.URL, "blocked", fmt.Sprintf(`{"jobs":[%s]}`, smallSweep(20)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("blocked tenant degraded batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 429 without Retry-After")
	}

	// The same tenant's single submit is shed the same way.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(smallSweep(21)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Mobic-Tenant", "blocked")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("blocked tenant degraded submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded submit 429 without Retry-After")
	}
}
