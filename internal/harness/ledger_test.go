package harness

import (
	"math"
	"testing"

	"mobic/internal/cbrp"
	"mobic/internal/cluster"
	"mobic/internal/obs"
	"mobic/internal/radio"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

const ledgerPath = "testdata/work_ledger.json"

// ledgerCounters are the engine counters the work ledger pins exactly.
var ledgerCounters = []obs.Metric{
	obs.SimEventsFired, obs.SimEventsCanceled, obs.SimEventsPooled,
	obs.NetBeaconsSent, obs.NetDeliveries, obs.NetCollisions, obs.NetDrops,
	obs.NetNeighborAdds, obs.NetNeighborTimeouts,
	obs.NetRoleChanges, obs.NetHeadChanges,
}

const (
	// rxPowerColumn counts propagation-model calls: one per candidate the
	// broadcast's index query hands to the exact power test, plus the
	// threshold calibration in simnet.New.
	rxPowerColumn = "rxpower_calls"
	// allocsColumn is the run's heap allocation count, New included.
	allocsColumn = "allocs"
	// allocsTolerance is the relative drift allowed in allocsColumn. Repeats
	// of one run vary by a couple of allocations in a few thousand (map
	// growth, GC-timed runtime work); one allocation per beacon tick moves a
	// Table 1 run several-fold.
	allocsTolerance = 0.01
)

// rxCounter wraps a propagation model and counts its RxPower calls.
type rxCounter struct {
	radio.Model
	calls *int64
}

func (m rxCounter) RxPower(txPower, d float64) float64 {
	*m.calls++
	return m.Model.RxPower(txPower, d)
}

// ledgerConfigs returns the runs the ledger pins: Table 1 at Tx 250 and the
// collision-and-crash engine path at both golden seeds, CBRP routing over
// the first, and one 2,000-node run at Table 1 density (side
// 670·√(2000/50) m) for 60 s. Each run is a constructor, because an app
// keeps per-run state and every run needs a fresh one.
func ledgerConfigs(t *testing.T) map[string]func() simnet.Config {
	t.Helper()
	golden, paths := goldenConfigs(t), enginePathConfigs(t)
	out := make(map[string]func() simnet.Config)
	for _, seed := range GoldenSeeds() {
		for _, key := range []string{
			GoldenKey("table1-tx250", cluster.MOBIC.Name, seed),
			GoldenKey("collisions-failures-tx150", cluster.MOBIC.Name, seed),
		} {
			cfg, ok := golden[key]
			if !ok {
				cfg, ok = paths[key]
			}
			if !ok {
				t.Fatalf("%s: no such pinned run", key)
			}
			out[key] = func() simnet.Config { return cfg }
		}
	}
	// CBRP with the cbrp experiment's flows: the only row whose app layer
	// sends on pooled events.
	routed := golden[GoldenKey("table1-tx250", cluster.MOBIC.Name, 1)]
	out[GoldenKey("cbrp-tx250", cluster.MOBIC.Name, 1)] = func() simnet.Config {
		cfg := routed
		cfg.Apps = []simnet.App{cbrp.New(cbrp.Config{Flows: 10, DataInterval: 4})}
		return cfg
	}
	big := scenario.Base(250)
	big.N, big.Side = 2000, scenario.SmallSide*math.Sqrt(2000.0/scenario.DefaultN)
	big.Duration, big.Seed = 60, 1
	cfg, err := big.Config(cluster.MOBIC)
	if err != nil {
		t.Fatal(err)
	}
	out[GoldenKey("table1-density-n2000", cluster.MOBIC.Name, 1)] = func() simnet.Config { return cfg }
	return out
}

// ledgerRun runs cfg to completion and returns its work counts.
func ledgerRun(cfg simnet.Config) (map[string]int64, error) {
	reg := obs.NewRegistry()
	var calls int64
	prop := cfg.Propagation
	if prop == nil {
		prop = radio.NewTwoRayGround()
	}
	cfg.Obs, cfg.Propagation = reg, rxCounter{prop, &calls}
	net, err := simnet.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := net.Run(); err != nil {
		return nil, err
	}
	row := map[string]int64{rxPowerColumn: calls}
	for _, m := range ledgerCounters {
		row[obs.Definition(m).Name] = reg.Counter(m)
	}
	return row, nil
}

// TestWorkLedger pins how much work the engine does, not how long it takes:
// every count column of testdata/work_ledger.json must match exactly, and
// the allocation column within allocsTolerance (skipped under -race, whose
// instrumentation allocates). Counts repeat run after run on any machine,
// so the gate catches a change in work that wall time is too noisy to show.
// An intended change re-pins the file with
//
//	go test ./internal/harness -run TestWorkLedger -update
//
// and its diff shows which run and column moved.
func TestWorkLedger(t *testing.T) {
	if *update && raceEnabled {
		t.Fatal("re-pin the work ledger without -race: it cannot count allocations")
	}
	got := make(map[string]map[string]int64)
	for key, newCfg := range ledgerConfigs(t) {
		var (
			row map[string]int64
			err error
		)
		run := func() { row, err = ledgerRun(newCfg()) }
		allocs := 0.0
		if raceEnabled {
			run()
		} else {
			allocs = testing.AllocsPerRun(1, run)
		}
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !raceEnabled {
			row[allocsColumn] = int64(allocs)
		}
		got[key] = row
	}
	checkPinned(t, ledgerPath, got, func(key string, w, g map[string]int64) {
		for col, wv := range w {
			gv, ok := g[col]
			switch {
			case col == allocsColumn && raceEnabled:
			case !ok:
				t.Errorf("%s: %s pinned but no longer counted", key, col)
			case col == allocsColumn:
				if math.Abs(float64(gv-wv)) > allocsTolerance*float64(wv) {
					t.Errorf("%s: %s moved beyond ±%.0f%%: pinned %d, got %d", key, col, 100*allocsTolerance, wv, gv)
				}
			case gv != wv:
				t.Errorf("%s: %s moved: pinned %d, got %d", key, col, wv, gv)
			}
		}
		for col := range g {
			if _, ok := w[col]; !ok {
				t.Errorf("%s: %s counted but not pinned (refresh with -update)", key, col)
			}
		}
	})
}
