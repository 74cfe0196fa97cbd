package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/experiment"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// TestDigestStableAcrossRepeatedRuns proves the most basic determinism
// claim: the same config and seed produce byte-identical digests on two
// fresh Network instances in the same process.
func TestDigestStableAcrossRepeatedRuns(t *testing.T) {
	w := Workloads()[0] // fig3-tx100
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := w.Config(alg, 1)
			if err != nil {
				t.Fatal(err)
			}
			first, res1, err := DigestRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, res2, err := DigestRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Errorf("repeated run diverged: %+v vs %+v", first, second)
			}
			if res1.EventsFired != res2.EventsFired {
				t.Errorf("event counts diverged: %d vs %d", res1.EventsFired, res2.EventsFired)
			}
			if first.Events == 0 {
				t.Error("digest saw no events; observer hook is not wired")
			}
		})
	}
}

// digestingRunner returns a Runner whose Mutate attaches a fresh digester
// to every materialized cell config, and the map the digests land in, keyed
// by (algorithm, seed, tx). Mutate runs during job materialization (before
// the worker pool starts) but the map is still locked: digest completion is
// read after RunCells returns.
func digestingRunner(workers int) (experiment.Runner, func() map[string]Digest) {
	var mu sync.Mutex
	digesters := make(map[string]*Digester)
	r := experiment.Runner{
		Seeds:    2,
		BaseSeed: 1,
		Workers:  workers,
		Mutate: func(cfg *simnet.Config) {
			d := NewDigester()
			key := fmt.Sprintf("%s/seed%d/tx%g", cfg.Algorithm.Name, cfg.Seed, cfg.TxRange)
			mu.Lock()
			digesters[key] = d
			mu.Unlock()
			cfg.Observer = d.Observe
		},
	}
	return r, func() map[string]Digest {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]Digest, len(digesters))
		for k, d := range digesters {
			out[k] = Digest{SHA256: d.Sum(), Events: d.Count()}
		}
		return out
	}
}

// TestDigestInvariantAcrossWorkerCounts proves that the experiment
// harness's parallelism is pure scheduling: running the same sweep with one
// worker and with GOMAXPROCS workers yields byte-identical per-run digests
// and identical aggregate statistics. This is what licenses the service and
// CLI to pick worker counts freely.
func TestDigestInvariantAcrossWorkerCounts(t *testing.T) {
	var cells []experiment.Cell
	for _, w := range Workloads()[:2] { // fig3-tx100 and table1-tx250
		for _, alg := range Algorithms() {
			cells = append(cells, experiment.Cell{Params: w.Params, Algorithm: alg})
		}
	}

	serialRunner, serialDigests := digestingRunner(1)
	serialStats, err := serialRunner.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	parallelRunner, parallelDigests := digestingRunner(runtime.GOMAXPROCS(0))
	parallelStats, err := parallelRunner.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}

	serial, parallel := serialDigests(), parallelDigests()
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("digest sets differ in size: %d vs %d", len(serial), len(parallel))
	}
	for key, sd := range serial {
		pd, ok := parallel[key]
		if !ok {
			t.Errorf("%s: missing from parallel run", key)
			continue
		}
		if sd != pd {
			t.Errorf("%s: Workers=1 and Workers=N diverged:\n  serial:   %+v\n  parallel: %+v", key, sd, pd)
		}
	}
	for i := range serialStats {
		if serialStats[i].CHChanges != parallelStats[i].CHChanges ||
			serialStats[i].AvgClusters != parallelStats[i].AvgClusters {
			t.Errorf("cell %d aggregates diverged across worker counts", i)
		}
	}
}

// TestDigestInvariantGridVsBruteForce is the differential oracle for
// internal/spatial: delivering hellos through the spatial-grid candidate
// query and through an exhaustive O(N) scan must produce byte-identical
// digests. Any grid bug that loses, duplicates, or reorders a delivery
// across timestamps shows up here.
//
// Two extra inputs stress the grid query's motion slack, the margin that
// covers receivers moving since their last index refresh: the paper's §5
// highway, whose wrap-around leg sweeps a car across the whole segment in
// seconds, and an adaptive broadcast period whose Max is four times BI.
func TestDigestInvariantGridVsBruteForce(t *testing.T) {
	cases := map[string]simnet.Config{}
	for _, w := range Workloads()[:2] { // fig3-tx100 and table1-tx250
		for _, alg := range Algorithms() {
			cfg, err := w.Config(alg, 1)
			if err != nil {
				t.Fatal(err)
			}
			cases[w.Name+"/"+alg.Name] = cfg
		}
	}
	highway := &mobility.Highway{Length: 3000, Lanes: 4, MinSpeed: 20, MaxSpeed: 33, Bidirectional: true}
	cases["highway-tx250/mobic"] = simnet.Config{
		N: 40, Area: highway.Area(), Duration: PinnedDuration, Seed: 1,
		Algorithm: cluster.MOBIC, Mobility: highway, TxRange: 250,
	}
	square := geom.Square(670)
	cases["adaptive-bi-max8-tx100/mobic"] = simnet.Config{
		N: 50, Area: square, Duration: PinnedDuration, Seed: 1,
		Algorithm: cluster.MOBIC, Mobility: &mobility.RandomWaypoint{Area: square, MaxSpeed: 30},
		TxRange:  100,
		Adaptive: &simnet.AdaptiveBI{Min: 1, Max: 8, MRef: 4, Hysteresis: 0.25},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gridDigest, _, err := DigestRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ForceBruteForce = true
			bruteDigest, _, err := DigestRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gridDigest != bruteDigest {
				t.Errorf("spatial grid diverged from brute force:\n  grid:  %+v\n  brute: %+v",
					gridDigest, bruteDigest)
			}
		})
	}
}

// TestObserverSeesCompleteStream cross-checks the observer hook against the
// trace ring buffer: with a ring large enough to never wrap, both must see
// exactly the same events.
func TestObserverSeesCompleteStream(t *testing.T) {
	cfg, err := Workloads()[0].Config(Algorithms()[1], 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 60 // enough beacons to be meaningful, cheap enough to buffer
	log := trace.New(1 << 20)
	cfg.Trace = log
	var observed []trace.Event
	cfg.Observer = func(ev trace.Event) { observed = append(observed, ev) }
	net, err := simnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if log.Dropped() != 0 {
		t.Fatalf("ring wrapped (%d dropped); enlarge the buffer", log.Dropped())
	}
	ring := log.Events()
	if len(ring) != len(observed) {
		t.Fatalf("observer saw %d events, ring holds %d", len(observed), len(ring))
	}
	for i := range ring {
		if ring[i] != observed[i] {
			t.Fatalf("event %d differs: ring %+v, observer %+v", i, ring[i], observed[i])
		}
	}
}
