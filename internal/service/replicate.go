package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"mobic/internal/obs"
)

// Proactive WAL replication, the way a coordinator's failover keeps a
// sweep's progress. With replication enabled, a worker streams each job's
// journal records (the submit record, then every checkpoint) to its ring
// successor as they are fsync'd locally, so the successor holds a warm
// replica before anything dies, and a restore there resumes from it.
//
// Wire format: POST /v1/replica/{id} with body
//
//	MOBICREPL1\n | frame* — the journal's exact length+CRC framing
//
// where each batch carries the job's full record image so far (submit +
// contiguous checkpoint prefix). Full-image batches make the protocol
// trivially idempotent — the replica keeps the longest prefix it has seen —
// and they are small: a sweep checkpoints at most its cell count, and
// CellStats are a few hundred bytes. The replica acks {"records": N}; the
// sender stops resending once everything is acked and retries (bounded by
// the job's lifetime) when a batch fails.

// replMagic heads every replication batch body; bump the digit on any
// format change.
var replMagic = []byte("MOBICREPL1\n")

// maxReplicaBody bounds a replication batch on the receiving side.
const maxReplicaBody = 16 << 20

// replicator streams journal records of replica-targeted jobs to their ring
// successors. One flusher goroutine per job batches, sends and retries;
// finish (at the job's terminal transition or service shutdown) makes a
// final best-effort flush and drops the state.
type replicator struct {
	client *http.Client
	every  time.Duration
	rec    obs.Recorder

	mu     sync.Mutex
	jobs   map[string]*replJob
	closed bool
	drain  chan struct{} // 0-counter signal: all flushers exited
	n      int
}

type replJob struct {
	id     string
	target string // successor base URL, e.g. http://127.0.0.1:9002

	mu    sync.Mutex
	recs  []record
	acked int

	kick chan struct{} // buffered 1: work available
	done chan struct{} // closed once: job finished / shutdown
	stop sync.Once
}

func newReplicator(client *http.Client, every time.Duration, rec obs.Recorder) *replicator {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	if every <= 0 {
		every = 25 * time.Millisecond
	}
	return &replicator{
		client: client,
		every:  every,
		rec:    rec,
		jobs:   make(map[string]*replJob),
		drain:  make(chan struct{}, 1),
	}
}

// begin registers a job for replication and ships its opening image, the
// records its journal holds: the submit record plus any checkpoint prefix
// a restored job was seeded with. Call it before the job is queued, so the
// image holds no run-time record. No-op when the job carries no replica
// target.
func (r *replicator) begin(job *Job) {
	if job.replica == "" {
		return
	}
	rj := &replJob{
		id:     job.id,
		target: job.replica,
		recs:   jobRecords(job),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	r.mu.Lock()
	if r.closed || r.jobs[job.id] != nil {
		r.mu.Unlock()
		return
	}
	r.jobs[job.id] = rj
	r.n++
	r.mu.Unlock()
	rj.kick <- struct{}{}
	go r.run(rj)
}

// checkpoint appends one journaled checkpoint record to the job's replica
// stream. No-op for jobs that were never registered.
func (r *replicator) checkpoint(jobID string, rec record) {
	r.mu.Lock()
	rj := r.jobs[jobID]
	r.mu.Unlock()
	if rj == nil {
		return
	}
	rj.mu.Lock()
	rj.recs = append(rj.recs, rec)
	rj.mu.Unlock()
	select {
	case rj.kick <- struct{}{}:
	default:
	}
}

// finish ends a job's replication after a final best-effort flush. The
// replica's entry expires by TTL on its own side.
func (r *replicator) finish(jobID string) {
	r.mu.Lock()
	rj := r.jobs[jobID]
	delete(r.jobs, jobID)
	r.mu.Unlock()
	if rj != nil {
		rj.stop.Do(func() { close(rj.done) })
	}
}

// close stops every flusher (each makes one final flush attempt) and waits
// for them to exit.
func (r *replicator) close() {
	r.mu.Lock()
	r.closed = true
	jobs := make([]*replJob, 0, len(r.jobs))
	for _, rj := range r.jobs {
		jobs = append(jobs, rj)
	}
	r.jobs = make(map[string]*replJob)
	remaining := r.n
	r.mu.Unlock()
	for _, rj := range jobs {
		rj.stop.Do(func() { close(rj.done) })
	}
	for remaining > 0 {
		<-r.drain
		r.mu.Lock()
		remaining = r.n
		r.mu.Unlock()
	}
}

// run is one job's flusher: batch on kick (with a short coalescing window),
// retry unacked records periodically, final flush on done.
func (r *replicator) run(rj *replJob) {
	defer func() {
		r.mu.Lock()
		r.n--
		r.mu.Unlock()
		select {
		case r.drain <- struct{}{}:
		default:
		}
	}()
	retry := time.NewTicker(max(10*r.every, 250*time.Millisecond))
	defer retry.Stop()
	for {
		select {
		case <-rj.kick:
			// Coalescing window: a burst of checkpoints lands in one batch.
			t := time.NewTimer(r.every)
			select {
			case <-t.C:
			case <-rj.done:
			}
			t.Stop()
			r.flush(rj)
		case <-retry.C:
			r.flush(rj) // no-op when fully acked; the failed-batch retry path
		case <-rj.done:
			r.flush(rj)
			return
		}
	}
}

// flush ships the job's current full record image and advances the ack
// high-water mark. Failures only count a metric: the records stay queued
// for the next kick, retry tick or final flush.
func (r *replicator) flush(rj *replJob) {
	rj.mu.Lock()
	n := len(rj.recs)
	if rj.acked >= n {
		rj.mu.Unlock()
		return
	}
	recs := rj.recs[:n]
	rj.mu.Unlock()

	body, err := appendFrames(append([]byte(nil), replMagic...), recs...)
	if err != nil {
		return
	}
	resp, err := r.client.Post(rj.target+"/v1/replica/"+rj.id, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		r.rec.Add(obs.ReplFailures, 1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		r.rec.Add(obs.ReplFailures, 1)
		return
	}
	var ack struct {
		Records int `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		r.rec.Add(obs.ReplFailures, 1)
		return
	}
	acked := min(ack.Records, n)
	rj.mu.Lock()
	newly := acked - rj.acked
	if newly > 0 {
		rj.acked = acked
	}
	rj.mu.Unlock()
	r.rec.Add(obs.ReplBatches, 1)
	if newly > 0 {
		r.rec.Add(obs.ReplRecords, int64(newly))
	}
}
