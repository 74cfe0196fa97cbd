package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mobic/internal/chaos"
	"mobic/internal/experiment"
	"mobic/internal/fair"
)

// tenantRegistry builds a registry for tests, failing on config errors.
func tenantRegistry(t *testing.T, tenants ...fair.Tenant) *fair.Registry {
	t.Helper()
	reg, err := fair.NewRegistry(nil, tenants, false)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// tenantSweep is a minimal unique spec: seed encodes identity so stubs can
// recover which submission they are running.
func tenantSweep(seed uint64) JobSpec {
	return JobSpec{
		Sweep:    &SweepSpec{Scenario: ScenarioSpec{N: 10}, Algorithms: []string{"mobic"}},
		Seeds:    1,
		BaseSeed: seed,
	}
}

// TestWFQFairnessShare pins the tentpole observable end to end through the
// service: three backlogged tenants with weights 4:2:1 drain in weight
// proportion. Everything is deterministic — jobs are enqueued before the
// single worker starts, and the execution order itself is the assertion.
func TestWFQFairnessShare(t *testing.T) {
	reg := tenantRegistry(t,
		fair.Tenant{Name: "gold", Weight: 4},
		fair.Tenant{Name: "silver", Weight: 2},
		fair.Tenant{Name: "bronze", Weight: 1},
	)
	names := []string{"gold", "silver", "bronze"}
	var mu sync.Mutex
	var order []string // tenant of each execution, in pop order
	svc := New(Config{
		Workers:       1,
		QueueCapacity: 1000,
		Tenants:       reg,
		Execute: func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
			mu.Lock()
			order = append(order, names[spec.BaseSeed/1_000_000])
			mu.Unlock()
			progress(1, 1)
			return &Output{Result: &experiment.Result{ID: "stub"}}, nil
		},
	})

	const perTenant = 120
	var jobs []*Job
	for ti, name := range names {
		for i := 0; i < perTenant; i++ {
			job, _, err := svc.SubmitWith(tenantSweep(uint64(ti)*1_000_000+uint64(i)+1), SubmitOpts{Tenant: name})
			if err != nil {
				t.Fatalf("submit %s[%d]: %v", name, i, err)
			}
			jobs = append(jobs, job)
		}
	}
	svc.Start()
	defer svc.Shutdown(context.Background())
	for _, job := range jobs {
		waitTerminal(t, job)
	}

	// While all three tenants are backlogged (guaranteed for at least the
	// first perTenant pops), the pop mix must match the weight mix.
	const window = 140 // < perTenant: bronze is still backlogged throughout
	counts := map[string]int{}
	mu.Lock()
	for _, tenant := range order[:window] {
		counts[tenant]++
	}
	mu.Unlock()
	wants := map[string]int{"gold": 80, "silver": 40, "bronze": 20}
	for name, want := range wants {
		if got := counts[name]; got < want-3 || got > want+3 {
			t.Errorf("%s executed %d of first %d jobs, want %d±3 (counts %v)", name, got, window, want, counts)
		}
	}
}

// readAll drains r into a string, failing the test on error.
func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// keepLines filters body down to lines containing substr, for readable
// failure messages on large metric expositions.
func keepLines(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestZeroQuotaTenantShed pins the acceptance scenario: a tenant with a
// zero queued-job quota is always shed with its own 429 + Retry-After
// while every other tenant keeps being admitted.
func TestZeroQuotaTenantShed(t *testing.T) {
	reg := tenantRegistry(t,
		fair.Tenant{Name: "blocked", Weight: 1, MaxQueued: -1},
		fair.Tenant{Name: "payer", Weight: 1},
	)
	svc, srv := newTestAPI(t, Config{Tenants: reg, Execute: instantExecute(1)})

	post := func(tenant string, seed uint64) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs",
			strings.NewReader(fmt.Sprintf(`{"sweep":{"scenario":{"n":10},"algorithms":["mobic"]},"seeds":1,"base_seed":%d}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Mobic-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for i := 0; i < 3; i++ {
		resp := post("blocked", uint64(i+1))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("blocked tenant submit %d: status %d, want 429", i, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
			t.Fatalf("blocked tenant 429 without a usable Retry-After (%q)", ra)
		}
		resp.Body.Close()

		resp = post("payer", uint64(100+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("payer submit %d alongside: status %d, want 202", i, resp.StatusCode)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if st.Tenant != "payer" {
			t.Fatalf("payer job carries tenant %q", st.Tenant)
		}
	}

	// The shed shows up under the blocked tenant's own metric family.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp.Body)
	if !strings.Contains(body, `mobicd_tenant_jobs_shed_total{tenant="blocked"} 3`) {
		t.Errorf("metrics missing blocked tenant's shed count:\n%s", keepLines(body, "mobicd_tenant_"))
	}
	if !strings.Contains(body, `mobicd_tenant_jobs_admitted_total{tenant="payer"} 3`) {
		t.Errorf("metrics missing payer tenant's admitted count:\n%s", keepLines(body, "mobicd_tenant_"))
	}
	_ = svc
}

// TestRateLimitRetryAfter pins the per-tenant token-bucket shed: with a
// 1 job/s rate and burst 1, the second submission sheds with ErrRateLimited
// and a whole-second Retry-After, and a second elapsed on the (test) clock
// re-admits.
func TestRateLimitRetryAfter(t *testing.T) {
	now := time.Unix(5000, 0)
	reg := tenantRegistry(t, fair.Tenant{Name: "slow", Weight: 1, Rate: 1, Burst: 1})
	svc := New(Config{Tenants: reg, Clock: func() time.Time { return now }, QueueCapacity: 16})
	// Not started: admission is all this test exercises.

	if _, _, err := svc.SubmitWith(tenantSweep(1), SubmitOpts{Tenant: "slow"}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, _, err := svc.SubmitWith(tenantSweep(2), SubmitOpts{Tenant: "slow"})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submit err = %v, want ErrRateLimited", err)
	}
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("second submit err %T is not a *ShedError", err)
	}
	if se.Tenant != "slow" || se.RetryAfter < 1 || se.RetryAfter > 30 {
		t.Fatalf("shed = %+v, want tenant slow with RetryAfter in [1, 30]", se)
	}
	now = now.Add(time.Second)
	if _, _, err := svc.SubmitWith(tenantSweep(3), SubmitOpts{Tenant: "slow"}); err != nil {
		t.Fatalf("post-refill submit: %v", err)
	}
}

// TestSubmitBatchValidatesAtomically: one invalid spec rejects the whole
// batch before anything is admitted, journaled or enqueued.
func TestSubmitBatchValidatesAtomically(t *testing.T) {
	svc := New(Config{QueueCapacity: 16})
	specs := []JobSpec{tenantSweep(1), {Experiment: "no-such-experiment"}, tenantSweep(2)}
	_, err := svc.SubmitBatch(specs, SubmitOpts{})
	if !errors.Is(err, ErrInvalidSpec) || !strings.Contains(err.Error(), "jobs[1]") {
		t.Fatalf("batch err = %v, want ErrInvalidSpec naming jobs[1]", err)
	}
	if svc.QueueDepth() != 0 || svc.StoredJobs() != 0 {
		t.Fatalf("failed batch left depth=%d stored=%d", svc.QueueDepth(), svc.StoredJobs())
	}

	if _, err := svc.SubmitBatch(nil, SubmitOpts{}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("empty batch err = %v", err)
	}
	big := make([]JobSpec, MaxBatchJobs+1)
	for i := range big {
		big[i] = tenantSweep(uint64(i + 1))
	}
	if _, err := svc.SubmitBatch(big, SubmitOpts{}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("oversize batch err = %v", err)
	}

	// A valid batch admits every spec and stamps the tenant on each job.
	jobs, err := svc.SubmitBatch([]JobSpec{tenantSweep(10), tenantSweep(11), tenantSweep(12)}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || svc.QueueDepth() != 3 {
		t.Fatalf("batch admitted %d jobs, depth %d", len(jobs), svc.QueueDepth())
	}
}

// TestSubmitBatchQuotaAllOrNone: a batch that would exceed the tenant's
// quota sheds in full — no prefix is admitted.
func TestSubmitBatchQuotaAllOrNone(t *testing.T) {
	reg := tenantRegistry(t, fair.Tenant{Name: "tight", Weight: 1, MaxQueued: 2})
	svc := New(Config{Tenants: reg, QueueCapacity: 16})
	_, err := svc.SubmitBatch([]JobSpec{tenantSweep(1), tenantSweep(2), tenantSweep(3)}, SubmitOpts{Tenant: "tight"})
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota batch err = %v, want ErrTenantQuota", err)
	}
	if svc.QueueDepth() != 0 {
		t.Fatalf("shed batch enqueued %d jobs", svc.QueueDepth())
	}
	if jobs, err := svc.SubmitBatch([]JobSpec{tenantSweep(4), tenantSweep(5)}, SubmitOpts{Tenant: "tight"}); err != nil || len(jobs) != 2 {
		t.Fatalf("at-quota batch: %v (%d jobs)", err, len(jobs))
	}
}

// TestBatchCrashAtomicity is the acceptance crash test: a batch whose WAL
// frame is torn mid-write admits nothing across a restart, while an intact
// batch record replays every job — all-or-none, never a prefix.
func TestBatchCrashAtomicity(t *testing.T) {
	t.Run("torn-frame-admits-none", func(t *testing.T) {
		dir := t.TempDir()
		// First WAL write is the batch frame; tear it after 6 bytes.
		inj := chaos.New(chaos.MustParse("seed 7\nwrite wal nth=1 torn=6\n"))
		svc, err := Open(Config{DataDir: dir, WrapWAL: chaosWrap(inj, "wal"), QueueCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		_, err = svc.SubmitBatch([]JobSpec{tenantSweep(1), tenantSweep(2), tenantSweep(3)}, SubmitOpts{Tenant: ""})
		if err == nil || !chaos.IsInjected(err) {
			t.Fatalf("torn batch submit err = %v, want the injected write error", err)
		}
		// The failed batch admitted nothing even in-memory.
		if svc.StoredJobs() != 0 || svc.QueueDepth() != 0 {
			t.Fatalf("failed batch left stored=%d depth=%d", svc.StoredJobs(), svc.QueueDepth())
		}

		// "Crash" and reboot on the same dir: the torn frame must replay
		// as nothing, not as a partial batch.
		svc2, err := Open(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := svc2.RecoveredJobs(); got != 0 {
			t.Fatalf("recovered %d jobs from a torn batch frame, want 0", got)
		}
	})

	t.Run("intact-frame-replays-all", func(t *testing.T) {
		dir := t.TempDir()
		svc, err := Open(Config{DataDir: dir, QueueCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := svc.SubmitBatch([]JobSpec{tenantSweep(1), tenantSweep(2), tenantSweep(3)}, SubmitOpts{Tenant: ""})
		if err != nil {
			t.Fatal(err)
		}
		// SIGKILL: abandon without Shutdown — only the WAL survives.

		svc2, err := Open(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := svc2.RecoveredJobs(); got != len(jobs) {
			t.Fatalf("recovered %d jobs, want the whole batch (%d)", got, len(jobs))
		}
		for _, job := range jobs {
			if _, ok := svc2.Get(job.ID()); !ok {
				t.Errorf("batch job %s missing after replay", job.ID())
			}
		}
	})
}

// TestTenantAccountingSoak hammers submit/batch/cancel across tenants
// concurrently (run under -race in CI) and then checks the per-tenant
// books balance at quiescence: every admitted job reached a terminal
// state, no queued/running residue, and no job leaked across tenants.
func TestTenantAccountingSoak(t *testing.T) {
	tenants := []string{"a", "b", "c", "d"}
	reg := tenantRegistry(t,
		fair.Tenant{Name: "a", Weight: 4},
		fair.Tenant{Name: "b", Weight: 2},
		fair.Tenant{Name: "c", Weight: 1, MaxRunning: 2},
		fair.Tenant{Name: "d", Weight: 1},
	)
	svc := New(Config{Workers: 4, QueueCapacity: 4096, Tenants: reg, Execute: instantExecute(1)})
	svc.Start()
	defer svc.Shutdown(context.Background())

	const singles, batches, batchSize = 30, 4, 5
	var mu sync.Mutex
	byTenant := map[string][]*Job{}
	var wg sync.WaitGroup
	var seq struct {
		sync.Mutex
		n uint64
	}
	next := func() uint64 {
		seq.Lock()
		defer seq.Unlock()
		seq.n++
		return seq.n
	}
	for _, tenant := range tenants {
		wg.Add(2)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < singles; i++ {
				job, _, err := svc.SubmitWith(tenantSweep(next()), SubmitOpts{Tenant: tenant})
				if err != nil {
					t.Errorf("%s submit: %v", tenant, err)
					return
				}
				mu.Lock()
				byTenant[tenant] = append(byTenant[tenant], job)
				mu.Unlock()
				if i%3 == 0 {
					svc.Cancel(job.ID())
				}
			}
		}(tenant)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				specs := make([]JobSpec, batchSize)
				for j := range specs {
					specs[j] = tenantSweep(next())
				}
				jobs, err := svc.SubmitBatch(specs, SubmitOpts{Tenant: tenant})
				if err != nil {
					t.Errorf("%s batch: %v", tenant, err)
					return
				}
				mu.Lock()
				byTenant[tenant] = append(byTenant[tenant], jobs...)
				mu.Unlock()
			}
		}(tenant)
	}
	wg.Wait()

	for tenant, jobs := range byTenant {
		want := singles + batches*batchSize
		if len(jobs) != want {
			t.Fatalf("%s tracked %d jobs, want %d", tenant, len(jobs), want)
		}
		for _, job := range jobs {
			if st := waitTerminal(t, job); st.Tenant != tenant {
				t.Errorf("job %s leaked: submitted as %s, status says %q", job.ID(), tenant, st.Tenant)
			}
		}
	}

	for _, tenant := range tenants {
		tc := svc.TenantMetrics().Tenant(tenant)
		admitted, done := tc.Admitted.Load(), tc.Done.Load()
		queued, running, shed := tc.Queued.Load(), tc.Running.Load(), tc.Shed.Load()
		if want := int64(singles + batches*batchSize); admitted != want {
			t.Errorf("%s admitted %d, want %d", tenant, admitted, want)
		}
		if admitted != done || queued != 0 || running != 0 || shed != 0 {
			t.Errorf("%s books don't balance: admitted=%d done=%d queued=%d running=%d shed=%d",
				tenant, admitted, done, queued, running, shed)
		}
	}
}

// TestRetryAfterSecondsProperties pins the hint function's contract:
// monotone non-decreasing in queue depth, always within [1, 30], and 1
// when no latency estimate exists yet.
func TestRetryAfterSecondsProperties(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, ewma := range []float64{0.01, 0.25, 1, 5, 60} {
			prev := 0
			for depth := 0; depth <= 300; depth++ {
				got := RetryAfterSeconds(depth, workers, ewma)
				if got < 1 || got > 30 {
					t.Fatalf("RetryAfterSeconds(%d, %d, %g) = %d outside [1, 30]", depth, workers, ewma, got)
				}
				if got < prev {
					t.Fatalf("RetryAfterSeconds not monotone at depth %d (workers %d, ewma %g): %d < %d",
						depth, workers, ewma, got, prev)
				}
				prev = got
			}
		}
	}
	for _, ewma := range []float64{0, -1} {
		if got := RetryAfterSeconds(100, 2, ewma); got != 1 {
			t.Fatalf("RetryAfterSeconds with ewma %g = %d, want 1", ewma, got)
		}
	}
}

// TestTenantAccessors covers the thin tenant surface the dispatch tier
// leans on: depth per tenant, registry exposure, the exported hint
// function, and the job's tenant accessor.
func TestTenantAccessors(t *testing.T) {
	reg := tenantRegistry(t, fair.Tenant{Name: "team", Weight: 2})
	svc := New(Config{Tenants: reg, QueueCapacity: 16})
	job, _, err := svc.SubmitWith(tenantSweep(1), SubmitOpts{Tenant: "team"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant() != "team" {
		t.Fatalf("job.Tenant() = %q", job.Tenant())
	}
	if d := svc.TenantDepth("team"); d != 1 {
		t.Fatalf("TenantDepth(team) = %d, want 1", d)
	}
	if d := svc.TenantDepth("other"); d != 0 {
		t.Fatalf("TenantDepth(other) = %d, want 0", d)
	}
	if svc.Tenants() != reg {
		t.Fatal("Tenants() did not return the configured registry")
	}
}
