package service

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobic/internal/experiment"
)

// fastRetry is a retry policy with test-scale backoff.
func fastRetry(maxAttempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: maxAttempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

func TestRetryThenSuccess(t *testing.T) {
	var calls atomic.Int32
	exec := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("transient glitch")
		}
		return &Output{Result: &experiment.Result{ID: "stub"}}, nil
	}
	svc := New(Config{Workers: 1, Retry: fastRetry(3), Execute: exec})
	svc.Start()
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded on attempt 3", st.State, st.Error)
	}
	if st.Attempt != 3 {
		t.Errorf("attempt = %d, want 3", st.Attempt)
	}
	if got := svc.Metrics().retried.Load(); got != 2 {
		t.Errorf("retried counter = %d, want 2", got)
	}
}

func TestPoisonedAfterMaxAttempts(t *testing.T) {
	exec := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		return nil, errors.New("always broken")
	}
	svc := New(Config{Workers: 1, Retry: fastRetry(2), Execute: exec})
	svc.Start()
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StatePoisoned {
		t.Fatalf("state = %s (%s), want poisoned", st.State, st.Error)
	}
	if st.Attempt != 2 {
		t.Errorf("attempt = %d, want 2", st.Attempt)
	}
	if !strings.Contains(st.Error, "poisoned after 2 attempts") || !strings.Contains(st.Error, "always broken") {
		t.Errorf("error = %q, want attempts and cause surfaced", st.Error)
	}
	if got := svc.Metrics().poisoned.Load(); got != 1 {
		t.Errorf("poisoned counter = %d, want 1", got)
	}
	if got := svc.Metrics().retried.Load(); got != 1 {
		t.Errorf("retried counter = %d, want 1", got)
	}
}

// TestNoRetryByDefault: the zero-value policy keeps the original contract —
// one failure, terminal StateFailed, no poisoning.
func TestNoRetryByDefault(t *testing.T) {
	var calls atomic.Int32
	exec := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		calls.Add(1)
		return nil, errors.New("boom")
	}
	svc := New(Config{Workers: 1, Execute: exec})
	svc.Start()
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("executor ran %d times, want 1", got)
	}
	if got := svc.Metrics().retried.Load(); got != 0 {
		t.Errorf("retried counter = %d, want 0", got)
	}
}

// TestPanicIsolation: a panicking executor must fail only its own job —
// concurrently running jobs finish normally and the daemon keeps accepting
// work. Run under -race in CI, this also shakes out data races between the
// recovering worker and healthy ones.
func TestPanicIsolation(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		if spec.Seeds == 7 {
			panic("kaboom: executor bug")
		}
		select {
		case <-release:
			return &Output{Result: &experiment.Result{ID: "stub"}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	svc := New(Config{Workers: 2, Execute: exec})
	svc.Start()
	defer svc.Shutdown(context.Background())

	// Healthy job occupies one worker while the panicking job detonates on
	// the other.
	healthy, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := svc.Submit(JobSpec{Experiment: "fig3", Seeds: 7})
	if err != nil {
		t.Fatal(err)
	}
	badSt := waitTerminal(t, bad)
	if badSt.State != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", badSt.State)
	}
	if !strings.Contains(badSt.Error, "panicked") || !strings.Contains(badSt.Error, "kaboom") {
		t.Errorf("error = %q, want panic value surfaced", badSt.Error)
	}
	if !strings.Contains(badSt.Error, "goroutine") {
		t.Errorf("error lacks a stack trace: %q", badSt.Error)
	}

	close(release)
	if st := waitTerminal(t, healthy); st.State != StateSucceeded {
		t.Errorf("healthy job state = %s (%s), want succeeded alongside the panic", st.State, st.Error)
	}
	// The daemon survives: a fresh submission still runs.
	after, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, after); st.State != StateSucceeded {
		t.Errorf("post-panic job state = %s, want succeeded", st.State)
	}
}

// TestPanickingJobPoisons: with retries enabled a deterministic panic burns
// through its attempts and lands in quarantine.
func TestPanickingJobPoisons(t *testing.T) {
	exec := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		panic("deterministic bug")
	}
	svc := New(Config{Workers: 1, Retry: fastRetry(2), Execute: exec})
	svc.Start()
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StatePoisoned {
		t.Fatalf("state = %s, want poisoned", st.State)
	}
	if !strings.Contains(st.Error, ErrJobPanicked.Error()) {
		t.Errorf("error = %q, want %q surfaced", st.Error, ErrJobPanicked)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name    string
		depth   int
		workers int
		ewma    float64
		want    int
	}{
		{"no history", 5, 2, 0, 1},
		{"fast jobs floor at 1s", 0, 1, 0.2, 1},
		{"one queued ahead", 1, 1, 4.0, 8},
		{"deep queue split across workers", 9, 2, 4.0, 20},
		{"cap at 30s", 100, 1, 10.0, 30},
		{"many workers drain fast", 3, 4, 1.0, 1},
		{"zero workers clamps to one", 1, 0, 2.0, 4},
	}
	for _, tc := range cases {
		if got := RetryAfterSeconds(tc.depth, tc.workers, tc.ewma); got != tc.want {
			t.Errorf("%s: RetryAfterSeconds(%d, %d, %g) = %d, want %d",
				tc.name, tc.depth, tc.workers, tc.ewma, got, tc.want)
		}
	}
}
