package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mobic/internal/cache"
	"mobic/internal/experiment"
)

// sampleRecords builds a small but representative record sequence.
func sampleRecords() []record {
	spec := JobSpec{Experiment: "fig3", Seeds: 2}
	cs := experiment.CellStats{CHChanges: 3.5, AvgClusters: 7}
	t0 := time.Unix(1700000000, 0).UTC()
	return []record{
		{Type: recSubmit, Job: "aaaa", Time: t0, Spec: &spec, Key: "idem-1"},
		{Type: recStart, Job: "aaaa", Time: t0.Add(time.Second), Attempt: 1},
		{Type: recCheckpoint, Job: "aaaa", Time: t0.Add(2 * time.Second), Cell: 0, Stats: &cs},
		{Type: recRetry, Job: "aaaa", Time: t0.Add(3 * time.Second), Attempt: 1, Error: "boom"},
		{Type: recFinish, Job: "aaaa", Time: t0.Add(4 * time.Second), State: StateSucceeded,
			Output: &Output{Result: &experiment.Result{ID: "stub"}}},
	}
}

func TestJournalAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records, want 0", len(recs))
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Job != want[i].Job ||
			got[i].Attempt != want[i].Attempt || got[i].State != want[i].State {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[2].Stats == nil || got[2].Stats.CHChanges != 3.5 {
		t.Errorf("checkpoint stats not preserved: %+v", got[2].Stats)
	}
	if got[4].Output == nil || got[4].Output.Result.ID != "stub" {
		t.Errorf("finish output not preserved: %+v", got[4].Output)
	}
}

// TestJournalAppendManyMatchesSingles checks that one Append of several
// records leaves the same file bytes as one Append per record: batching
// the write changes the fsync count, not the WAL.
func TestJournalAppendManyMatchesSingles(t *testing.T) {
	recs := sampleRecords()
	image := func(appends ...[]record) []byte {
		dir := t.TempDir()
		j, _, err := openJournal(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range appends {
			if err := j.Append(a...); err != nil {
				t.Fatal(err)
			}
		}
		size := j.Size()
		j.Close()
		data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != size {
			t.Fatalf("Size() = %d, file holds %d bytes", size, len(data))
		}
		return data
	}
	var singles [][]record
	for _, rec := range recs {
		singles = append(singles, []record{rec})
	}
	if many, one := image(recs), image(singles...); !bytes.Equal(many, one) {
		t.Fatalf("Append of %d records wrote %d bytes; one Append each wrote %d", len(recs), len(many), len(one))
	}
}

// syncCounter counts the journal's fsyncs through the WrapWAL seam.
type syncCounter struct {
	WALFile
	n *atomic.Int64
}

func (c syncCounter) Sync() error {
	c.n.Add(1)
	return c.WALFile.Sync()
}

// TestOneSyncPerAcknowledgement pins the WAL cost of each admission: every
// acknowledgement is one write and one fsync, however many records it
// journals — a cache hit's submit and finish, a restore's submit and the
// checkpoints of its replica, a batch's one frame.
func TestOneSyncPerAcknowledgement(t *testing.T) {
	c, err := cache.Open(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var syncs atomic.Int64
	svc, err := Open(Config{
		DataDir:       t.TempDir(),
		Cache:         c,
		QueueCapacity: 16,
		WrapWAL:       func(f WALFile) WALFile { return syncCounter{f, &syncs} },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The service is never started, so no worker journals under the count.
	out, err := json.Marshal(Output{Result: &experiment.Result{ID: "stub"}})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(specFig3().Digest(), out)
	seedReplica(t, svc, "00aa11bb22cc33dd", sweepTwoCells(), 2)

	for _, tc := range []struct {
		name string
		ack  func() error
	}{
		{"cache hit", func() error {
			job, err := svc.Submit(specFig3())
			if err == nil {
				if st, _, _ := job.Snapshot(); st.State != StateSucceeded {
					return fmt.Errorf("state %s, want a cache hit", st.State)
				}
			}
			return err
		}},
		{"restore seeded with a 2-cell replica", func() error {
			job, _, err := svc.Restore("00aa11bb22cc33dd", sweepTwoCells(), SubmitOpts{})
			if err == nil && len(job.checkpointed()) != 2 {
				return fmt.Errorf("restored with %d checkpoints, want 2", len(job.checkpointed()))
			}
			return err
		}},
		{"submit", func() error {
			_, err := svc.Submit(tenantSweep(1))
			return err
		}},
		{"batch", func() error {
			_, err := svc.SubmitBatch([]JobSpec{tenantSweep(2), tenantSweep(3)}, SubmitOpts{})
			return err
		}},
	} {
		before := syncs.Load()
		if err := tc.ack(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := syncs.Load() - before; n != 1 {
			t.Errorf("%s: %d fsyncs, want 1", tc.name, n)
		}
	}
}

// TestJournalTornTail simulates a crash mid-append: the file ends with a
// partial frame, which replay must truncate away while keeping every record
// before it.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	full := j.Size()
	j.Close()

	path := filepath.Join(dir, "journal.wal")
	for _, cut := range []int64{1, 5, 9, 20} {
		if err := os.Truncate(path, full-cut); err != nil {
			t.Fatal(err)
		}
		j2, got, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != len(want)-1 {
			t.Errorf("cut %d: replayed %d records, want %d", cut, len(got), len(want)-1)
		}
		// The truncation must leave a valid file: append and re-replay.
		if err := j2.Append(want[len(want)-1]); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		full = j2.Size()
		j2.Close()
		j3, again, err := openJournal(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(want) {
			t.Errorf("cut %d: after repair replayed %d records, want %d", cut, len(again), len(want))
		}
		j3.Close()
	}
}

// TestJournalCorruptPayload flips a byte inside a record's payload: the CRC
// must reject that record and everything after it.
func TestJournalCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte in the middle of the file — inside some record's JSON.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, got, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) >= len(sampleRecords()) {
		t.Fatalf("replayed %d records from corrupted file, want fewer than %d", len(got), len(sampleRecords()))
	}
	for _, rec := range got {
		if rec.Type == "" || rec.Job == "" {
			t.Errorf("corrupted record leaked through CRC: %+v", rec)
		}
	}
}

// TestJournalGarbageFile: a file that never had a valid header is reset to
// an empty journal rather than an error.
func TestJournalGarbageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from garbage, want 0", len(recs))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, journalMagic) {
		t.Errorf("garbage file not reset to bare magic header: %q", data)
	}
}

func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for i := 0; i < 100; i++ {
		for _, rec := range recs {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := j.Size()
	if err := j.Compact(recs); err != nil {
		t.Fatal(err)
	}
	if j.Size() >= before {
		t.Errorf("compaction did not shrink the WAL: %d -> %d", before, j.Size())
	}
	if fi, err := os.Stat(filepath.Join(dir, "journal.wal")); err != nil {
		t.Fatal(err)
	} else if fi.Size() != j.Size() {
		t.Errorf("after compaction Size() = %d, file holds %d bytes", j.Size(), fi.Size())
	}
	// The compacted journal must still accept appends and replay cleanly.
	if err := j.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, got, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(recs)+1 {
		t.Fatalf("after compaction replayed %d records, want %d", len(got), len(recs)+1)
	}
}

// TestJournalErrLatch: appends against a closed file must surface through
// Err (the readiness probe) and clear after recovery.
func TestJournalErrLatch(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("fresh journal unhealthy: %v", err)
	}
	j.f.Close() // simulate the descriptor going bad underneath
	if err := j.Append(sampleRecords()[0]); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if err := j.Err(); err == nil {
		t.Fatal("Err() nil after failed append")
	}
}
