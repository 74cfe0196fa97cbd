package service

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"mobic/internal/cache"
	"mobic/internal/chaos"
	"mobic/internal/experiment"
)

// countingExecute is instantExecute plus an execution counter, the probe
// that tells a real run from a cache hit.
func countingExecute(runs *atomic.Int64) ExecuteFunc {
	return func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		runs.Add(1)
		return &Output{Result: &experiment.Result{ID: "stub", Title: "stub"}}, nil
	}
}

func newCacheService(t *testing.T, cfg Config) (*Service, *atomic.Int64) {
	t.Helper()
	var runs atomic.Int64
	if cfg.Execute == nil {
		cfg.Execute = countingExecute(&runs)
	}
	if cfg.Cache == nil {
		c, err := cache.Open(cache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = c
	}
	svc := New(cfg)
	svc.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, &runs
}

// waitFlights polls until every in-flight digest is released: settle runs
// just after the terminal transition watchers wake on, so tests that
// expect a cache hit next must wait for the flight to drain.
func waitFlights(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for svc.flights.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flights never drained: %d still open", svc.flights.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheHitSkipsExecution(t *testing.T) {
	svc, runs := newCacheService(t, Config{})

	first, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, first)
	if st.State != StateSucceeded {
		t.Fatalf("first job %s: %s", st.State, st.Error)
	}
	waitFlights(t, svc)

	// Identical spec again: a finished job comes back immediately, no
	// second execution.
	second, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	st2, _, _ := second.Snapshot()
	if st2.State != StateSucceeded {
		t.Fatalf("cached submission state = %s, want succeeded immediately", st2.State)
	}
	if second.ID() == first.ID() {
		t.Fatal("cache hit reused the original job ID")
	}
	if st2.Result == nil || st2.Result.ID != "stub" {
		t.Fatalf("cached submission lost the output: %+v", st2.Output)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}

	// A semantically different spec still runs.
	if _, err := svc.Submit(JobSpec{Experiment: "fig3", Seeds: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("different spec did not execute (runs=%d)", runs.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFlightCollapsesConcurrentDuplicates(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	svc, _ := newCacheService(t, Config{Workers: 1, Execute: blockingExecute(started, release)})

	leader, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Same spec while the leader runs: attach, don't enqueue.
	dup, existed, err := svc.SubmitWith(specFig3(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !existed || dup.ID() != leader.ID() {
		t.Fatalf("duplicate got job %s (existed=%v), want leader %s", dup.ID(), existed, leader.ID())
	}

	close(release)
	if st := waitTerminal(t, leader); st.State != StateSucceeded {
		t.Fatalf("leader %s: %s", st.State, st.Error)
	}
	waitFlights(t, svc)
	// Flight is released; the next identical submission is a cache hit.
	third, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	if st, _, _ := third.Snapshot(); st.State != StateSucceeded {
		t.Fatalf("post-flight submission state = %s, want cache hit", st.State)
	}
}

// TestBatchJobLeadsFlight checks that a batch job takes its digest's free
// flight slot, so an identical single submission made while it runs
// attaches to it instead of simulating the spec a second time.
func TestBatchJobLeadsFlight(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	svc, _ := newCacheService(t, Config{Workers: 1, Execute: blockingExecute(started, release)})

	batch, err := svc.SubmitBatch([]JobSpec{specFig3()}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	dup, existed, err := svc.SubmitWith(specFig3(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !existed || dup.ID() != batch[0].ID() {
		t.Fatalf("duplicate got job %s (existed=%v), want batch job %s", dup.ID(), existed, batch[0].ID())
	}
	close(release)
	if st := waitTerminal(t, batch[0]); st.State != StateSucceeded {
		t.Fatalf("batch job %s: %s", st.State, st.Error)
	}
	waitFlights(t, svc)
}

func TestFlightReleasedOnFailure(t *testing.T) {
	fail := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		return nil, context.DeadlineExceeded
	}
	svc, _ := newCacheService(t, Config{Execute: fail})

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	waitFlights(t, svc)
	// Nothing was cached: the next submission runs again (blocked jobs would
	// surface here as an instant bogus success).
	again, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, again); st.State != StateFailed {
		t.Fatalf("resubmission state = %s, want failed (fresh run)", st.State)
	}
}

// TestFlightNotTakenOnJournalFailure checks that a submit whose WAL append
// fails leaves no in-flight slot behind: a leftover leader would name a job
// that was never stored, and identical submissions would stop collapsing.
func TestFlightNotTakenOnJournalFailure(t *testing.T) {
	c, err := cache.Open(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.MustParse("seed 7\nwrite wal nth=1 error\n"))
	svc, err := Open(Config{DataDir: t.TempDir(), WrapWAL: chaosWrap(inj, "wal"), Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(specFig3()); err == nil || !chaos.IsInjected(err) {
		t.Fatalf("submit err = %v, want the injected write error", err)
	}
	if n := svc.flights.Len(); n != 0 {
		t.Fatalf("failed submit left %d in-flight digests, want 0", n)
	}
}

func TestCacheHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cacheDir := t.TempDir()
	var runs atomic.Int64

	open := func() *Service {
		c, err := cache.Open(cache.Config{Dir: cacheDir})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := Open(Config{DataDir: dir, Cache: c, Execute: countingExecute(&runs)})
		if err != nil {
			t.Fatal(err)
		}
		svc.Start()
		return svc
	}
	shutdown := func(svc *Service) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}

	svc := open()
	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	shutdown(svc)

	svc2 := open()
	defer shutdown(svc2)
	hit, err := svc2.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	if st, _, _ := hit.Snapshot(); st.State != StateSucceeded {
		t.Fatalf("post-restart submission state = %s, want disk cache hit", st.State)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("executions across restart = %d, want 1", n)
	}
}

func TestCachedJobQueryableAfterRestart(t *testing.T) {
	// A cache-served job is journaled like any other completed job, so a
	// restart keeps it queryable by ID.
	dir := t.TempDir()
	c, err := cache.Open(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	svc, err := Open(Config{DataDir: dir, Cache: c, Execute: countingExecute(&runs)})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	waitFlights(t, svc)
	hit, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = svc.Shutdown(ctx)
	cancel()

	c2, err := cache.Open(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := Open(Config{DataDir: dir, Cache: c2, Execute: countingExecute(&runs)})
	if err != nil {
		t.Fatal(err)
	}
	svc2.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc2.Shutdown(ctx)
	}()
	got, ok := svc2.Get(hit.ID())
	if !ok {
		t.Fatalf("cache-served job %s lost across restart", hit.ID())
	}
	st, _, _ := got.Snapshot()
	if st.State != StateSucceeded || st.Result == nil {
		t.Fatalf("restored cache-served job: state=%s result=%v", st.State, st.Result)
	}
}

// BenchmarkCacheHit measures the full submit path when the answer is
// already cached: digest the spec, hit the memory LRU, journal nothing
// (in-memory mode), and hand back a finished job. This is the latency a
// duplicate sweep submission pays instead of re-simulating.
func BenchmarkCacheHit(b *testing.B) {
	c, err := cache.Open(cache.Config{MaxEntries: 16})
	if err != nil {
		b.Fatal(err)
	}
	var runs atomic.Int64
	svc := New(Config{
		Workers: 1,
		// Terminal jobs must outlive the benchmark loop's store churn.
		TTL:     time.Hour,
		Execute: countingExecute(&runs),
		Cache:   c,
	})
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	spec := specFig3()
	seed, err := svc.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	for {
		st, _, notify := seed.Snapshot()
		if st.State.Terminal() {
			break
		}
		<-notify
	}
	for svc.flights.Len() != 0 {
		time.Sleep(time.Millisecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if st, _, _ := job.Snapshot(); st.State != StateSucceeded {
			b.Fatalf("submission was not a cache hit: %s", st.State)
		}
	}
	b.StopTimer()
	if got := runs.Load(); got != 1 {
		b.Fatalf("executed %d times, want exactly 1 (everything else cached)", got)
	}
}
