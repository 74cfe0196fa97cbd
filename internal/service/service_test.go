package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mobic/internal/experiment"
)

// instantExecute is a stub that reports n progress steps and succeeds
// immediately.
func instantExecute(n int) ExecuteFunc {
	return func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		for i := 1; i <= n; i++ {
			progress(i, n)
		}
		return &Output{Result: &experiment.Result{ID: "stub", Title: "stub"}}, nil
	}
}

// blockingExecute blocks until release is closed or ctx is done, so tests
// can hold workers busy deterministically. started receives one value per
// execution start.
func blockingExecute(started chan<- string, release <-chan struct{}) ExecuteFunc {
	return func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		if started != nil {
			started <- spec.Experiment
		}
		select {
		case <-release:
			return &Output{Result: &experiment.Result{ID: "stub", Title: "stub"}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func specFig3() JobSpec { return JobSpec{Experiment: "fig3"} }

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		st, _, notify := j.Snapshot()
		if st.State.Terminal() {
			return st
		}
		select {
		case <-notify:
		case <-deadline:
			t.Fatalf("job %s stuck in state %s", st.ID, st.State)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := New(Config{Execute: instantExecute(1)})
	svc.Start()
	defer svc.Shutdown(context.Background())

	cases := []struct {
		name string
		spec JobSpec
	}{
		{"empty", JobSpec{}},
		{"both", JobSpec{Experiment: "fig3", Sweep: &SweepSpec{Algorithms: []string{"mobic"}}}},
		{"unknown experiment", JobSpec{Experiment: "fig99"}},
		{"unknown algorithm", JobSpec{Sweep: &SweepSpec{Algorithms: []string{"nope"}}}},
		{"no algorithms", JobSpec{Sweep: &SweepSpec{}}},
		{"too many seeds", JobSpec{Experiment: "fig3", Seeds: MaxSeeds + 1}},
		{"negative tx", JobSpec{Sweep: &SweepSpec{Algorithms: []string{"mobic"}, TxRanges: []float64{-5}}}},
		{"oversized n", JobSpec{Sweep: &SweepSpec{Scenario: ScenarioSpec{N: MaxNodes + 1}, Algorithms: []string{"mobic"}}}},
		{"routes before its first sample", JobSpec{Experiment: "routes", Duration: 119}},
		{"flooding before its first sample", JobSpec{Experiment: "flooding", Duration: 99.5}},
	}
	for _, tc := range cases {
		if _, err := svc.Submit(tc.spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

// TestValidateExperimentMinDuration checks that a duration override too
// short for an experiment's first sample is rejected by name, before any
// cache lookup could serve a result computed from it, and that the
// shortest sampling duration itself is accepted.
func TestValidateExperimentMinDuration(t *testing.T) {
	for _, tc := range []struct {
		id  string
		min float64
	}{{"routes", 120}, {"flooding", 100}} {
		err := JobSpec{Experiment: tc.id, Duration: tc.min - 1}.Validate()
		if !errors.Is(err, ErrInvalidSpec) || !strings.Contains(err.Error(), fmt.Sprintf("at least %g s", tc.min)) {
			t.Errorf("%s at %g s: err = %v, want ErrInvalidSpec naming %g s", tc.id, tc.min-1, err, tc.min)
		}
		if err := (JobSpec{Experiment: tc.id, Duration: tc.min}).Validate(); err != nil {
			t.Errorf("%s at %g s: %v", tc.id, tc.min, err)
		}
	}
}

func TestSubmitRunsJob(t *testing.T) {
	svc := New(Config{Execute: instantExecute(3)})
	svc.Start()
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", st.State, st.Error)
	}
	if st.Result == nil || st.Result.ID != "stub" {
		t.Errorf("result = %+v, want stub result", st.Result)
	}
	if st.Done != 3 || st.Total != 3 {
		t.Errorf("progress = %d/%d, want 3/3", st.Done, st.Total)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Error("missing started/finished timestamps")
	}
}

func TestQueueFullSheds(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	svc := New(Config{
		Workers:       1,
		QueueCapacity: 1,
		Execute:       blockingExecute(started, release),
	})
	svc.Start()

	// First job occupies the only worker...
	if _, err := svc.Submit(specFig3()); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...second fills the queue...
	if _, err := svc.Submit(specFig3()); err != nil {
		t.Fatal(err)
	}
	// ...third must be shed, not block.
	if _, err := svc.Submit(specFig3()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := svc.Metrics().rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	// A shed job must not linger in the store.
	if got := svc.StoredJobs(); got != 2 {
		t.Errorf("stored jobs = %d, want 2", got)
	}

	close(release)
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	svc := New(Config{Workers: 1, Execute: blockingExecute(started, nil)})
	svc.Start()

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := svc.Cancel(job.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	st := waitTerminal(t, job)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Errorf("error = %q, want ctx.Err() surfaced", st.Error)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	svc := New(Config{Workers: 1, QueueCapacity: 4, Execute: blockingExecute(started, release)})
	svc.Start()

	if _, err := svc.Submit(specFig3()); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	queued.RequestCancel()
	close(release)
	st := waitTerminal(t, queued)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled (job must never run)", st.State)
	}
	if st.StartedAt != nil {
		t.Error("canceled-while-queued job has a start time")
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobTimeout(t *testing.T) {
	svc := New(Config{Workers: 1, Execute: blockingExecute(nil, nil)})
	svc.Start()

	job, err := svc.Submit(JobSpec{Experiment: "fig3", TimeoutSeconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("error = %q, want deadline exceeded surfaced", st.Error)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestTTLEviction(t *testing.T) {
	var (
		mu  sync.Mutex
		now = time.Unix(1000, 0)
	)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(d)
	}

	svc := New(Config{TTL: time.Minute, Execute: instantExecute(1), Clock: clock})
	svc.Start()
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)

	// Before the TTL the job stays queryable; after it, it is evicted.
	svc.store.EvictExpired(clock())
	if _, ok := svc.Get(job.ID()); !ok {
		t.Fatal("job evicted before TTL")
	}
	advance(2 * time.Minute)
	if n := svc.store.EvictExpired(clock()); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
	if _, ok := svc.Get(job.ID()); ok {
		t.Error("job still queryable after TTL eviction")
	}
}

func TestShutdownDrainsQueuedJobs(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 8, Execute: instantExecute(1)})
	svc.Start()

	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := svc.Submit(specFig3())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		st, _, _ := j.Snapshot()
		if st.State != StateSucceeded {
			t.Errorf("job %d: state = %s, want succeeded after drain", i, st.State)
		}
	}
	if _, err := svc.Submit(specFig3()); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	started := make(chan string, 1)
	svc := New(Config{Workers: 1, Execute: blockingExecute(started, nil)})
	svc.Start()

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want deadline exceeded", err)
	}
	st, _, _ := job.Snapshot()
	if st.State != StateCanceled {
		t.Errorf("in-flight job state = %s, want canceled after forced drain", st.State)
	}
}
