package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mobic/internal/experiment"
)

// The write-ahead journal makes mobicd jobs durable: every lifecycle
// transition is appended — and fsync'd — before it becomes visible, so a
// crashed or killed daemon recovers its queue on the next boot and resumes
// interrupted sweeps from their last completed-cell checkpoint. Each
// acknowledgement is one write and one fsync, however many records it
// carries (a cache hit's submit and finish, a restore's submit and seeded
// checkpoints).
//
// On-disk format: a magic header line followed by length-prefixed,
// CRC32-framed records. Each frame is
//
//	uint32(len(payload)) | uint32(crc32-IEEE(payload)) | payload
//
// with little-endian integers and a JSON-encoded record payload. A torn
// tail — a partial frame, an impossible length, a CRC or JSON mismatch —
// marks the end of the valid prefix; openJournal truncates it away and the
// daemon carries on from the last intact record, which is exactly the
// contract an append-only log can honor after power loss.
//
// Compaction bounds growth: the logical records of the jobs still in the
// store are rewritten to a temp file which atomically replaces the WAL.
// It runs at boot (dropping expired and torn garbage) and from the janitor
// once the file exceeds Config.CompactBytes.

// journalMagic heads every WAL file; bump the digit on any format change.
var journalMagic = []byte("MOBICWAL1\n")

// WALFile is the file surface the journal writes through — the slice of
// *os.File it actually uses. Config.WrapWAL intercepts it, which is how the
// chaos harness injects torn writes and fsync failures without the service
// importing the injector.
type WALFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// maxRecordBytes bounds a single record; longer length prefixes are treated
// as corruption. Outputs of the largest admissible sweep stay far below it.
const maxRecordBytes = 64 << 20

// Journal record types.
const (
	recSubmit     = "submit"     // job accepted: spec, idempotency key
	recStart      = "start"      // an execution attempt began
	recCheckpoint = "checkpoint" // one sweep cell completed
	recRetry      = "retry"      // an attempt failed; job re-queued
	recFinish     = "finish"     // terminal transition (output for success)
	// recBatch admits a whole POST /v1/jobs:batch submission in one frame.
	// The frame is the atomicity unit of the WAL (length + CRC), so replay
	// admits either every job of the batch or none of them — a crash
	// between the ack and the next record can never leave half a batch
	// durable.
	recBatch = "batch"
)

// batchEntry is one job of a recBatch record.
type batchEntry struct {
	Job  string   `json:"job"`
	Spec *JobSpec `json:"spec"`
}

// record is one journal entry. A single struct covers every type; unused
// fields stay at their zero value and are omitted from the JSON payload.
type record struct {
	Type string    `json:"type"`
	Job  string    `json:"job"`
	Time time.Time `json:"time"`
	// Submit fields.
	Spec *JobSpec `json:"spec,omitempty"`
	Key  string   `json:"key,omitempty"`
	// Tenant is the canonical tenant name a submit or batch record admits
	// its jobs under ("" = default tenant, omitted).
	Tenant string `json:"tenant,omitempty"`
	// Batch carries a recBatch record's jobs, admitted as a unit.
	Batch []batchEntry `json:"batch,omitempty"`
	// Attempt counts executions so far (start: this attempt's ordinal;
	// retry: the attempt that just failed).
	Attempt int `json:"attempt,omitempty"`
	// Checkpoint fields. Cell deliberately has no omitempty: cell 0 is a
	// meaningful index.
	Cell  int                   `json:"cell"`
	Stats *experiment.CellStats `json:"stats,omitempty"`
	// Terminal fields.
	State  State   `json:"state,omitempty"`
	Error  string  `json:"error,omitempty"`
	Output *Output `json:"output,omitempty"`
}

// appendFrames appends each record to buf as a complete length+CRC frame.
// It is the one frame encoder: journal appends, compaction images and
// replication batches all go through it.
func appendFrames(buf []byte, recs ...record) ([]byte, error) {
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return buf, fmt.Errorf("journal: encode: %w", err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}
	return buf, nil
}

// decodeRecords parses the longest valid prefix of a journal image and
// returns its records plus the prefix length in bytes. Anything past the
// returned offset — a partial frame, a bad CRC, malformed JSON, a missing
// magic header — is a torn tail the caller should truncate. It never fails:
// corruption just ends the prefix.
func decodeRecords(data []byte) ([]record, int) {
	return decodeFrames(data, journalMagic)
}

// decodeFrames is decodeRecords parameterized over the magic header, so the
// replication wire format (MOBICREPL1) reuses the exact framing and
// torn-prefix semantics of the WAL.
func decodeFrames(data, magic []byte) ([]record, int) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, 0
	}
	off := len(magic)
	var recs []record
	for {
		if len(data)-off < 8 {
			return recs, off
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordBytes || int(n) > len(data)-off-8 {
			return recs, off
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += 8 + int(n)
	}
}

// Journal is the append-only, fsync'd WAL. All methods are safe for
// concurrent use; Append holds the lock across the fsync, so the journal
// serializes the record order the replayer will observe.
//
// Failure semantics: a failed append wedges the journal — every later
// Append refuses with the original error until a successful Compact rebuilds
// the file. The failed write may have left a partial frame at the tail;
// appending a good frame after it would survive the fsync yet vanish at
// replay (torn-tail truncation stops at the garbage), silently un-acking a
// durable record. Wedging turns that silent loss into an explicit 503 via
// Err until compaction rewrites the log from live state.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       WALFile
	wrap    func(WALFile) WALFile
	size    int64
	lastErr error
}

// openJournal opens (creating if needed) dir's WAL, replays its records,
// and truncates any torn tail so the file ends on a record boundary. wrap,
// when non-nil, intercepts the live file handle (the chaos seam); the
// replay/truncate setup above runs on the raw file first, so a schedule
// only perturbs steady-state appends, not recovery itself.
func openJournal(dir string, wrap func(WALFile) WALFile) (*Journal, []record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, valid := decodeRecords(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if valid == 0 {
		// Fresh file, or one whose header never made it to disk intact.
		if err := f.Truncate(0); err == nil {
			_, err = f.Write(journalMagic)
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: init: %w", err)
		}
		valid = len(journalMagic)
	} else if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	syncDir(dir)
	j := &Journal{path: path, f: f, size: int64(valid)}
	if wrap != nil {
		j.wrap = wrap
		j.f = wrap(f)
	}
	return j, recs, nil
}

// syncDir fsyncs a directory so file creations and renames inside it are
// durable. Errors are ignored: some filesystems refuse directory fsync, and
// the data fsync has already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Append encodes recs into one buffer, then writes and fsyncs it: one
// write and one fsync per call, however many records it carries. The
// records are durable when Append returns nil. A failure wedges the
// journal (see the type comment): every later Append short-circuits with
// the same error — surfaced by Err, which flips /readyz to 503 — until a
// Compact rebuilds the file from live state and clears it. A write torn
// inside a later frame leaves the earlier frames of the call replayable.
func (j *Journal) Append(recs ...record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lastErr != nil {
		return j.lastErr
	}
	buf, err := appendFrames(nil, recs...)
	if err == nil {
		_, err = j.f.Write(buf)
	}
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.lastErr = fmt.Errorf("journal: append: %w", err)
		return j.lastErr
	}
	j.size += int64(len(buf))
	return nil
}

// Err returns the most recent append/compaction failure, or nil while the
// journal is healthy. A non-nil value flips /readyz to 503.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastErr
}

// Size returns the current WAL size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Compact atomically replaces the WAL with the given logical records:
// write temp file, fsync, rename over the journal, fsync the directory.
// Appends block for the duration, so no record can race the swap. Callers
// that snapshot live state must externally exclude appenders between
// taking the snapshot and calling Compact (see Service.compactMu), or a
// record appended in between is erased by the rewrite.
func (j *Journal) Compact(recs []record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, "journal-*.tmp")
	if err != nil {
		j.lastErr = fmt.Errorf("journal: compact: %w", err)
		return j.lastErr
	}
	// fail is only valid before the rename: once tmp has replaced the
	// journal it IS the live WAL and must not be closed or unlinked.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		j.lastErr = fmt.Errorf("journal: compact: %w", err)
		return j.lastErr
	}
	// Counting while writing gives the compacted WAL's size without any
	// post-rename syscall: the rename is the point of no return, so nothing
	// after it may fail. Frames go out one at a time through one reused
	// buffer, so the image never sits in memory beside the live state.
	size := int64(len(journalMagic))
	if _, err := tmp.Write(journalMagic); err != nil {
		return fail(err)
	}
	var frame []byte
	for _, rec := range recs {
		if frame, err = appendFrames(frame[:0], rec); err == nil {
			_, err = tmp.Write(frame)
		}
		if err != nil {
			return fail(err)
		}
		size += int64(len(frame))
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	// CreateTemp made the file 0600; without this the first compaction
	// would silently tighten the 0644 the journal was created with.
	if err := tmp.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fail(err)
	}
	syncDir(dir)
	j.f.Close()
	j.f = tmp
	if j.wrap != nil {
		j.f = j.wrap(tmp)
	}
	j.size = size
	j.lastErr = nil
	return nil
}

// Close closes the underlying file. Appends after Close fail (and trip the
// readiness probe), which is the safe failure mode during teardown.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// jobRecords renders one job's current state as the logical record sequence
// replay would need to reconstruct it; compaction concatenates these across
// the store to rebuild a minimal WAL.
func jobRecords(job *Job) []record {
	job.mu.Lock()
	defer job.mu.Unlock()
	recs := []record{{
		Type:   recSubmit,
		Job:    job.id,
		Time:   job.created,
		Spec:   &job.spec,
		Key:    job.idemKey,
		Tenant: job.tenant,
	}}
	if job.attempt > 0 {
		recs = append(recs, record{Type: recRetry, Job: job.id, Time: job.created, Attempt: job.attempt})
	}
	for i := range job.cps {
		cs := job.cps[i]
		recs = append(recs, record{Type: recCheckpoint, Job: job.id, Time: job.created, Cell: i, Stats: &cs})
	}
	if job.state.Terminal() {
		recs = append(recs, record{
			Type:   recFinish,
			Job:    job.id,
			Time:   job.finished,
			State:  job.state,
			Error:  job.errMsg,
			Output: job.output,
		})
	}
	return recs
}
