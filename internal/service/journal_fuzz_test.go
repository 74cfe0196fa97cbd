package service

import (
	"bytes"
	"testing"

	"mobic/internal/cache"
)

// FuzzJournalReplay hardens the WAL decoder against arbitrary on-disk bytes
// — the exact situation after a crash, a partial write, or bit rot. Three
// properties must hold for any input:
//
//  1. decodeRecords never panics and never reads past the buffer;
//  2. the valid-prefix offset is within [0, len(data)];
//  3. re-encoding the decoded records yields an image that decodes to the
//     same count with no torn tail (round-trip stability), so a compaction
//     of recovered state can always be replayed;
//  4. folding the records into a fresh service (restore, in cache mode so
//     re-enqueued jobs take flight slots) never panics, and stores each job
//     ID once: every stored job comes from a submit or batch entry, and
//     every re-enqueued job is the one stored under its ID.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(journalMagic)
	f.Add([]byte("not a journal"))
	// A valid single-record image.
	buf, err := appendFrames(bytes.Clone(journalMagic), record{Type: recSubmit, Job: "ab", Spec: &JobSpec{Experiment: "fig3"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	// The same image with a truncated tail and with a flipped CRC byte.
	f.Add(buf[:len(buf)-3])
	flipped := bytes.Clone(buf)
	flipped[len(journalMagic)+4] ^= 0x01
	f.Add(flipped)
	// A batch frame with an entry lacking a spec and one lacking an ID,
	// whose valid entry repeats the submit's ID above.
	buf, err = appendFrames(buf, record{Type: recBatch, Tenant: "gold", Batch: []batchEntry{
		{Job: "cd", Spec: nil},
		{Job: "", Spec: &JobSpec{Experiment: "fig3"}},
		{Job: "ab", Spec: &JobSpec{Experiment: "fig5"}},
		{Job: "ef", Spec: &JobSpec{Experiment: "fig5"}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)

	c, err := cache.Open(cache.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n := decodeRecords(data)
		if n < 0 || n > len(data) {
			t.Fatalf("valid prefix %d outside [0, %d]", n, len(data))
		}
		if len(recs) > 0 && n < len(journalMagic) {
			t.Fatalf("%d records decoded from a %d-byte prefix (shorter than the header)", len(recs), n)
		}
		// Round-trip: what we decoded must re-encode into a fully valid
		// journal image.
		out, err := appendFrames(bytes.Clone(journalMagic), recs...)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, m := decodeRecords(out)
		if m != len(out) {
			t.Fatalf("re-encoded image has a torn tail: valid %d of %d", m, len(out))
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}

		ids := make(map[string]bool)
		for _, rec := range recs {
			switch rec.Type {
			case recSubmit:
				ids[rec.Job] = ids[rec.Job] || rec.Spec != nil
			case recBatch:
				for _, be := range rec.Batch {
					ids[be.Job] = ids[be.Job] || be.Spec != nil
				}
			}
		}
		svc := newService(Config{Cache: c}.withDefaults())
		pending := svc.restore(recs)
		for _, job := range svc.store.All() {
			if job.ID() == "" || !ids[job.ID()] {
				t.Fatalf("stored job %q comes from no submit or batch entry", job.ID())
			}
		}
		seen := make(map[string]bool)
		for _, job := range pending {
			if seen[job.ID()] {
				t.Fatalf("job %q re-enqueued twice", job.ID())
			}
			seen[job.ID()] = true
			if stored, ok := svc.store.Get(job.ID()); !ok || stored != job {
				t.Fatalf("re-enqueued job %q is not the one stored under its ID", job.ID())
			}
		}
	})
}
