package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobic/internal/experiment"
)

func sweepTwoCells() JobSpec {
	return JobSpec{
		Seeds: 1,
		Sweep: &SweepSpec{
			Algorithms: []string{"mobic"},
			TxRanges:   []float64{100, 150},
		},
	}
}

// seedReplica applies one replication batch for id to svc's replica store:
// spec's submit record and cells checkpoints, as a ring predecessor would
// stream them.
func seedReplica(t *testing.T, svc *Service, id string, spec JobSpec, cells int) {
	t.Helper()
	recs := []record{{Type: recSubmit, Job: id, Spec: &spec}}
	for i := range cells {
		recs = append(recs, record{Type: recCheckpoint, Job: id, Cell: i, Stats: &experiment.CellStats{CHChanges: 1}})
	}
	if _, err := svc.Replicas().Apply(id, replBatch(t, recs...), time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreResumesFromPrefix(t *testing.T) {
	var startCell atomic.Int64
	capture := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		startCell.Store(int64(base.StartCell))
		return &Output{}, nil
	}
	svc := New(Config{Execute: capture})
	svc.Start()
	defer func() { _ = svc.Shutdown(context.Background()) }()

	seedReplica(t, svc, "ffee00112233aabb", sweepTwoCells(), 1)
	job, existed, err := svc.Restore("ffee00112233aabb", sweepTwoCells(), SubmitOpts{})
	if err != nil || existed {
		t.Fatalf("Restore: existed=%v err=%v", existed, err)
	}
	if job.ID() != "ffee00112233aabb" {
		t.Fatalf("restored job got ID %s", job.ID())
	}
	if st := waitTerminal(t, job); st.State != StateSucceeded {
		t.Fatalf("restored job %s: %s", st.State, st.Error)
	}
	if sc := startCell.Load(); sc != 1 {
		t.Fatalf("runner StartCell = %d, want 1 (resume past the replica's prefix)", sc)
	}

	// Replaying the restore is idempotent.
	again, existed, err := svc.Restore("ffee00112233aabb", sweepTwoCells(), SubmitOpts{})
	if err != nil || !existed || again.ID() != job.ID() {
		t.Fatalf("replayed Restore: job=%v existed=%v err=%v", again, existed, err)
	}

	// A replica of another spec under the restored ID is ignored: the job
	// runs from cell 0.
	other := sweepTwoCells()
	other.Seeds = 2
	seedReplica(t, svc, "0011223344556677", other, 1)
	job, _, err = svc.Restore("0011223344556677", sweepTwoCells(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if sc := startCell.Load(); sc != 0 {
		t.Fatalf("runner StartCell = %d, want 0 (replica of another spec)", sc)
	}
}

func TestRestoreRejectsBadInput(t *testing.T) {
	svc := New(Config{Execute: instantExecute(1)})
	svc.Start()
	defer func() { _ = svc.Shutdown(context.Background()) }()

	// A replica that arrived from a peer with more checkpoints than the
	// sweep has cells.
	seedReplica(t, svc, "abc123", sweepTwoCells(), 3)

	cases := []struct {
		name string
		id   string
		spec JobSpec
	}{
		{"empty id", "", sweepTwoCells()},
		{"long id", strings.Repeat("a", 65), sweepTwoCells()},
		{"invalid spec", "abc124", JobSpec{}},
		{"replica longer than the sweep", "abc123", sweepTwoCells()},
	}
	for _, tc := range cases {
		if _, _, err := svc.Restore(tc.id, tc.spec, SubmitOpts{}); err == nil {
			t.Errorf("%s: Restore accepted", tc.name)
		}
	}
}

func TestHTTPRestoreFromReplica(t *testing.T) {
	// Worker A runs a sweep partway and streams its checkpoint to worker B;
	// a restore on B under the same job ID resumes from B's replica.
	var startCell atomic.Int64
	checkpointing := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		startCell.Store(int64(base.StartCell))
		if base.Checkpoint != nil && base.StartCell == 0 {
			base.Checkpoint(0, experiment.CellStats{CHChanges: 1})
		}
		return &Output{}, nil
	}
	svcB, srvB := newTestAPI(t, Config{Execute: checkpointing})
	_, srvA := newTestAPI(t, Config{Execute: checkpointing, Replicate: true, ReplicaFlushEvery: time.Millisecond})

	body, _ := json.Marshal(sweepTwoCells())
	req, _ := http.NewRequest(http.MethodPost, srvA.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Idempotency-Key", "run-7")
	req.Header.Set("X-Mobic-Replica", srvB.URL)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	getStatus(t, srvA, st.ID)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, cps, ok := svcB.Replicas().Lookup(st.ID); ok && len(cps) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("B never held A's one-cell replica")
		}
		time.Sleep(time.Millisecond)
	}

	restore := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srvB.URL+"/v1/jobs/"+st.ID+"/restore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	restoreBody, _ := json.Marshal(map[string]any{"spec": sweepTwoCells(), "key": "run-7"})

	// A body in the old shape, which shipped a checkpoint set, is refused.
	old, _ := json.Marshal(map[string]any{
		"spec":        sweepTwoCells(),
		"key":         "run-7",
		"checkpoints": map[string]any{"version": 1},
	})
	resp = restore(string(old))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("restore with checkpoints: status %d, want 400", resp.StatusCode)
	}

	resp = restore(string(restoreBody))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("restore status = %d", resp.StatusCode)
	}
	restored := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if restored.ID != st.ID {
		t.Fatalf("restored under ID %s, want %s", restored.ID, st.ID)
	}
	if fin := getStatus(t, srvB, st.ID); fin.State != StateSucceeded {
		t.Fatalf("restored job %s: %s", fin.State, fin.Error)
	}
	if sc := startCell.Load(); sc != 1 {
		t.Fatalf("worker B StartCell = %d, want 1", sc)
	}

	// Replaying the restore returns the existing job.
	resp = restore(string(restoreBody))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed restore status = %d, want 200", resp.StatusCode)
	}
}
