package simnet

import (
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/energy"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/obs"
	"mobic/internal/trace"
)

// steadyStateAllocs builds the static 50-node gate scenario with the given
// recorder installed, converges it, and returns the allocations per
// steady-state beacon interval.
func steadyStateAllocs(t *testing.T, rec obs.Recorder) float64 {
	return steadyStateAllocsMut(t, rec, nil)
}

// steadyStateAllocsMut is steadyStateAllocs with a config mutator applied
// before the network is built, so policy variants reuse the same gate.
func steadyStateAllocsMut(t *testing.T, rec obs.Recorder, mutate func(*Config)) float64 {
	t.Helper()
	area := geom.Square(670)
	cfg := Config{
		N:               50,
		Area:            area,
		Duration:        900,
		Seed:            11,
		Algorithm:       cluster.MOBIC,
		Mobility:        &mobility.Static{Area: area},
		TxRange:         250,
		HelloCollisions: true,
		Obs:             rec,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Converge: cluster roles settle within a minute, but the pools'
	// high-water marks (simultaneous in-flight receptions, per-node expired
	// samples) keep creeping for a while under MAC losses, and each creep
	// is an append-doubling allocation. Five simulated minutes flattens
	// them all.
	net.RunUntil(300)

	interval := net.Config().BroadcastInterval
	return testing.AllocsPerRun(20, func() {
		net.sched.RunUntil(net.sched.Now() + interval)
	})
}

// TestSteadyStateTickAllocs is the allocation regression gate for the
// engine hot path: once a static network has converged, advancing the
// simulation — beacons, MAC airtime deferrals, deliveries, neighbor-table
// updates, clustering steps and the periodic cluster sampler — must allocate
// nothing. Every object on that path (events, receptions, neighbor tables,
// candidate and view buffers, sampler tables, the topology graph) is pooled or
// reused; a regression in any of them shows up here as a nonzero count.
func TestSteadyStateTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	if allocs := steadyStateAllocs(t, nil); allocs > 0 {
		t.Errorf("steady-state beacon interval allocates %.1f objects, want 0", allocs)
	}
}

// TestSteadyStateTickAllocsWithPolicies re-runs the gate with the adaptive
// broadcast period and the energy model enabled: per-beacon interval
// adaptation, drain accounting and the election penalty all live on the hot
// path and must ride the preallocated per-node arrays — enabling the
// policies cannot cost a single steady-state allocation. The battery budget
// is far above the horizon's drain so the run measures the policies'
// bookkeeping, not death churn.
func TestSteadyStateTickAllocsWithPolicies(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	allocs := steadyStateAllocsMut(t, nil, func(cfg *Config) {
		cfg.Adaptive = &AdaptiveBI{Min: 0.5, Max: 4, MRef: 4, Hysteresis: 0.25}
		ec := energy.Default()
		ec.InitialJ = 1e6
		cfg.Energy = &ec
	})
	if allocs > 0 {
		t.Errorf("policy-enabled beacon interval allocates %.1f objects, want 0", allocs)
	}
}

// TestSteadyStateTickAllocsNopRecorder runs the same gate with an explicit
// obs.Nop installed: the instrumentation hooks themselves (counter adds,
// gauge sets on every fired event and delivery) must add zero allocations
// per interval when telemetry is disabled.
func TestSteadyStateTickAllocsNopRecorder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	if allocs := steadyStateAllocs(t, obs.Nop{}); allocs > 0 {
		t.Errorf("noop-instrumented beacon interval allocates %.1f objects, want 0", allocs)
	}
}

// TestSteadyStateTickAllocsRegistry tightens the contract further: even with
// a live obs.Registry aggregating every hook, the hot path stays
// allocation-free — the registry records into preallocated atomic arrays.
func TestSteadyStateTickAllocsRegistry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	reg := obs.NewRegistry()
	if allocs := steadyStateAllocs(t, reg); allocs > 0 {
		t.Errorf("registry-instrumented beacon interval allocates %.1f objects, want 0", allocs)
	}
	// Sanity: the hooks actually fired during convergence.
	if reg.Counter(obs.SimEventsFired) == 0 || reg.Counter(obs.NetBeaconsSent) == 0 {
		t.Error("registry recorded no engine activity; hooks are disconnected")
	}
}

// TestSteadyStateTickAllocsTraceRing installs a trace.Log ring as the
// observer. The ring is far smaller than one interval's events (about 2,500
// for 50 nodes: a beacon and ~49 deliveries each), so every measured
// interval overwrites its oldest slots; recording and wrapping must both
// stay allocation-free.
func TestSteadyStateTickAllocsTraceRing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	log := trace.New(1024)
	allocs := steadyStateAllocsMut(t, nil, func(cfg *Config) { cfg.Observer = log.Record })
	if allocs > 0 {
		t.Errorf("trace-ring beacon interval allocates %.1f objects, want 0", allocs)
	}
	if log.Len() != 1024 || log.Dropped() == 0 {
		t.Errorf("ring holds %d events with %d dropped; want it full and wrapping", log.Len(), log.Dropped())
	}
}
