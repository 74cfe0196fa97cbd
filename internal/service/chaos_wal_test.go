package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mobic/internal/chaos"
	"mobic/internal/experiment"
)

// chaosWrap adapts a chaos injector to the journal's WrapWAL seam. The two
// interfaces (chaos.OSFile, service.WALFile) are structurally identical on
// purpose, so neither package imports the other.
func chaosWrap(inj *chaos.Injector, class string) func(WALFile) WALFile {
	return func(f WALFile) WALFile { return inj.File(class, f) }
}

// TestJournalWedgesAndCompactHeals drives the journal's failure semantics
// through the chaos write interceptor: a failed append wedges every later
// append with the same error, and a Compact rebuild is the only unwedge.
func TestJournalWedgesAndCompactHeals(t *testing.T) {
	inj := chaos.New(chaos.MustParse("seed 5\nwrite wal nth=2 error\n"))
	j, recs, err := openJournal(t.TempDir(), chaosWrap(inj, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}

	spec := replSweep()
	sub := record{Type: recSubmit, Job: "a", Spec: &spec}
	if err := j.Append(sub); err != nil {
		t.Fatalf("first append: %v", err)
	}
	// Second append hits the injected write error and wedges the journal.
	if err := j.Append(record{Type: recStart, Job: "a", Attempt: 1}); err == nil {
		t.Fatal("append with injected write error succeeded")
	}
	if err := j.Err(); err == nil || !chaos.IsInjected(err) {
		t.Fatalf("Err = %v, want the injected write error", err)
	}
	// Later appends short-circuit on the wedge without touching the file.
	fired := inj.Fired()
	if err := j.Append(sub); err == nil {
		t.Fatal("append on a wedged journal succeeded")
	}
	if inj.Fired() != fired {
		t.Error("wedged append still reached the file")
	}

	// Compact rebuilds from live state and clears the wedge.
	if err := j.Compact([]record{sub}); err != nil {
		t.Fatalf("compact on wedged journal: %v", err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("Err after compact = %v, want nil", err)
	}
	if err := j.Append(record{Type: recStart, Job: "a", Attempt: 1}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
}

// TestJournalTornWriteTruncatesOnReplay pins the interplay between torn
// writes and recovery: a write severed mid-frame wedges the journal, and a
// reopen replays only up to the last intact frame — the torn tail is
// truncated, never parsed as a record. The write is torn either in a
// single-record append after an intact one, or inside the second frame of
// one two-record append, whose intact first frame then replays alone.
func TestJournalTornWriteTruncatesOnReplay(t *testing.T) {
	spec := replSweep()
	sub := record{Type: recSubmit, Job: "a", Spec: &spec}
	start := record{Type: recStart, Job: "a", Attempt: 1}
	subFrame, err := appendFrames(nil, sub)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		schedule string
		appends  [][]record // every append but the last succeeds
	}{
		// Torn: only 6 bytes of the start frame reach the file.
		{"single-record", "write wal nth=2 torn=6", [][]record{{sub}, {start}}},
		// Torn 10 bytes into the start frame, the second of the write.
		{"two-record", fmt.Sprintf("write wal nth=1 torn=%d", len(subFrame)+10), [][]record{{sub, start}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := chaos.New(chaos.MustParse("seed 5\n" + tc.schedule + "\n"))
			j, _, err := openJournal(dir, chaosWrap(inj, "wal"))
			if err != nil {
				t.Fatal(err)
			}
			last := len(tc.appends) - 1
			for _, recs := range tc.appends[:last] {
				if err := j.Append(recs...); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Append(tc.appends[last]...); err == nil {
				t.Fatal("torn append reported success")
			}
			if j.Err() == nil || j.Append(start) == nil {
				t.Fatal("journal not wedged after a torn append")
			}
			j.Close()

			j2, recs, err := openJournal(dir, nil)
			if err != nil {
				t.Fatalf("reopen after torn write: %v", err)
			}
			defer j2.Close()
			if len(recs) != 1 || recs[0].Type != recSubmit {
				t.Fatalf("replayed %d records (want just the intact submit)", len(recs))
			}
			// The torn tail was truncated: appends land cleanly on the boundary.
			if err := j2.Append(start); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			_, recs, err = openJournal(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 {
				t.Fatalf("replayed %d records after post-truncation append, want 2", len(recs))
			}
		})
	}
}

// TestFsyncFailureFlipsReadyAndDrains is the service-level half: an
// injected fsync failure wedges the journal and flips Ready to false, but
// the in-flight job still drains to completion — and the janitor's healing
// compaction restores readiness.
func TestFsyncFailureFlipsReadyAndDrains(t *testing.T) {
	inj := chaos.New(chaos.MustParse("seed 11\nfsync wal nth=2..4 error\n"))
	svc, err := Open(Config{
		DataDir:    t.TempDir(),
		Workers:    1,
		Runner:     experiment.Runner{Seeds: 1, Workers: 1},
		WrapWAL:    chaosWrap(inj, "wal"),
		EvictEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Shutdown(context.Background())

	// Submit journals fine (fsync #1); the start/checkpoint appends hit the
	// injected fsync failures and wedge the journal mid-job.
	job, err := svc.Submit(replSweep())
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	for {
		s, _, notify := job.Snapshot()
		if s.State.Terminal() {
			st = s
			break
		}
		<-notify
	}
	// The job drained despite the wedged journal.
	if st.State != StateSucceeded {
		t.Fatalf("job under fsync chaos: %s (%s)", st.State, st.Error)
	}
	if inj.Fired() < 1 {
		t.Fatal("fsync chaos never fired")
	}

	// The janitor's healing compaction eventually restores readiness (the
	// wedge window itself is racy to observe: the same pass may already
	// have healed it).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, _ := svc.Ready(); ok {
			break
		}
		if time.Now().After(deadline) {
			_, reason := svc.Ready()
			t.Fatalf("journal never healed: %s", reason)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
