package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobic/internal/cache"
	"mobic/internal/fair"
)

// TestReplayParentWAL replays testdata/parent.wal, a journal written by the
// service at commit 72142e3 under a fixed clock. It holds, in append order:
//
//   - a sweep submitted with idempotency key "alpha-key", started once and
//     checkpointed at cell 0 when the daemon died;
//   - one recBatch frame admitting two sweeps under tenant "gold": the
//     first checkpointed cell 0, failed, was retried, checkpointed cell 1
//     on attempt 2 and finished; the second had started once;
//   - a fig3 job served from the result cache (submit + finish).
//
// Every later WAL reader must fold it to the same jobs: the format
// (MOBICWAL1 and the record shapes) is a compatibility promise.
func TestReplayParentWAL(t *testing.T) {
	image, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := fair.NewRegistry(nil, []fair.Tenant{{Name: "gold", Weight: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Open(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), image, 0o644); err != nil {
		t.Fatal(err)
	}
	written := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	svc, err := Open(Config{DataDir: dir, Tenants: reg, Cache: c, Clock: func() time.Time { return written }})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		id, tenant, key string
		state           State
		attempt, cps    int
	}{
		{"aa6c697fc3a41a9d", "", "alpha-key", StateQueued, 1, 1},
		{"7f2a841f0d2f951a", "gold", "", StateSucceeded, 2, 2},
		{"e308d62f038c895c", "gold", "", StateQueued, 1, 0},
		{"87350cc5606465b1", "", "", StateSucceeded, 0, 0},
	}
	if n := svc.StoredJobs(); n != len(want) {
		t.Fatalf("stored %d jobs, want %d", n, len(want))
	}
	if n := svc.RecoveredJobs(); n != 2 {
		t.Fatalf("recovered %d jobs, want 2", n)
	}
	for _, w := range want {
		job, ok := svc.Get(w.id)
		if !ok {
			t.Errorf("job %s missing after replay", w.id)
			continue
		}
		st, _, _ := job.Snapshot()
		if job.Tenant() != w.tenant || job.IdempotencyKey() != w.key || st.State != w.state ||
			st.Attempt != w.attempt || len(job.checkpointed()) != w.cps {
			t.Errorf("job %s: tenant %q key %q state %s attempt %d checkpoints %d; want %q %q %s %d %d",
				w.id, job.Tenant(), job.IdempotencyKey(), st.State, st.Attempt, len(job.checkpointed()),
				w.tenant, w.key, w.state, w.attempt, w.cps)
		}
		if w.state == StateQueued {
			// A re-enqueued job re-takes its digest's flight slot.
			if leader, ok := svc.flights.Leader(job.Spec().Digest()); !ok || leader != w.id {
				t.Errorf("job %s: flight leader %q (%v), want itself", w.id, leader, ok)
			}
		}
	}
	if prev, ok := svc.store.ByKey("alpha-key"); !ok || prev.ID() != want[0].id {
		t.Errorf("idempotency key not restored")
	}
}
