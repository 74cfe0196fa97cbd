package service

import (
	"context"
	"runtime"
	"testing"

	"mobic/internal/experiment"
)

// TestFinishedJobRetainedHeap bounds what a durable service keeps per
// finished two-cell sweep for its TTL: the job record, its event log, its
// output and its checkpoint prefix. In a closed loop the number of finished
// jobs held grows with throughput, so every byte here is multiplied by it.
func TestFinishedJobRetainedHeap(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("heap accounting is distorted under -race; hundreds of sweeps are long-mode work")
	}
	const jobs, budget = 200, 2200 // budget: bytes retained per finished job
	svc, err := Open(Config{DataDir: t.TempDir(), Workers: 1, Runner: experiment.Runner{Seeds: 2, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Shutdown(context.Background())
	run := func(n int) uint64 {
		for i := 0; i < n; i++ {
			job, err := svc.Submit(JobSpec{
				Sweep: &SweepSpec{
					Scenario:   ScenarioSpec{N: 8, Duration: 10},
					Algorithms: []string{"mobic"},
					TxRanges:   []float64{100, 150},
				},
				BaseSeed: uint64(i + 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, job); st.State != StateSucceeded {
				t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm-up jobs grow the store's maps, the WAL buffers and the runner's
	// pools to their steady size before the baseline is read.
	before := run(20)
	perJob := (int64(run(jobs)) - int64(before)) / jobs
	t.Logf("retained %d B per finished two-cell sweep", perJob)
	if perJob > budget {
		t.Errorf("a finished job retains %d B, budget %d B", perJob, budget)
	}
}
