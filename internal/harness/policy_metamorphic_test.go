package harness

import (
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/energy"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// digestParams materializes p for alg and returns its trace digest.
func digestParams(t *testing.T, p scenario.Params, alg cluster.Algorithm) Digest {
	t.Helper()
	cfg, err := p.Config(alg)
	if err != nil {
		t.Fatal(err)
	}
	dig, _, err := DigestRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dig
}

// TestAdaptiveBIFloorEqualsCeilingMatchesFixedBI is the adaptive broadcast
// period's degenerate-band oracle: with BIMin == BIMax == BI the adaptive
// controller has nowhere to move, so the beacon schedule — and therefore the
// whole event stream — must be bit-identical to the fixed-interval engine.
// This is the strongest possible statement that enabling the policy at a
// pinned interval costs nothing semantically: the controller's presence is
// invisible until the band actually opens.
func TestAdaptiveBIFloorEqualsCeilingMatchesFixedBI(t *testing.T) {
	for _, seed := range GoldenSeeds() {
		fixed := scenario.Base(100)
		fixed.Duration = PinnedDuration
		fixed.Seed = seed

		pinned := fixed
		pinned.BIMin, pinned.BIMax = fixed.BI, fixed.BI

		a := digestParams(t, fixed, cluster.MOBIC)
		b := digestParams(t, pinned, cluster.MOBIC)
		if a != b {
			t.Errorf("seed %d: BIMin == BIMax == BI diverged from the fixed interval\n  fixed:    %+v\n  adaptive: %+v",
				seed, a, b)
		}
	}
}

// TestAdaptiveBIDisabledMatchesBaseline proves the policy-off differential:
// a config with no Adaptive block is bit-identical to today's engine — here
// anchored to the committed golden digest, so "disabled" means "exactly the
// pre-policy behaviour", not merely "self-consistent".
func TestAdaptiveBIDisabledMatchesBaseline(t *testing.T) {
	want := loadDigests(t, goldenPath)
	p := scenario.Base(100)
	p.Duration = PinnedDuration
	p.Seed = 1
	got := digestParams(t, p, cluster.MOBIC)
	key := GoldenKey("fig3-tx100", cluster.MOBIC.Name, 1)
	if got != want[key] {
		t.Errorf("policy-free run drifted from golden %s:\n  golden: %+v\n  got:    %+v", key, want[key], got)
	}
}

// TestEnergyScaleInvariance is the energy model's unit-independence oracle:
// multiplying every joule-denominated parameter by the same factor changes
// no election (they read the battery fraction) and no death time (the
// zero crossing scales with the budget), so the digest must not move. The
// factor is a power of two, which makes the scaled float arithmetic exact —
// the oracle tests the model's structure, not accumulated rounding.
func TestEnergyScaleInvariance(t *testing.T) {
	const k = 4
	for _, seed := range GoldenSeeds() {
		p := scenario.Base(100)
		p.Duration = PinnedDuration
		p.Seed = seed
		p.EnergyJ = 0.5

		cfg, err := p.Config(cluster.MOBIC)
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := DigestRun(cfg)
		if err != nil {
			t.Fatal(err)
		}

		scaledCfg, err := p.Config(cluster.MOBIC)
		if err != nil {
			t.Fatal(err)
		}
		ec := scaledCfg.Energy.Scale(k)
		scaledCfg.Energy = &ec
		scaled, _, err := DigestRun(scaledCfg)
		if err != nil {
			t.Fatal(err)
		}
		if base != scaled {
			t.Errorf("seed %d: scaling the energy unit by %d changed the run\n  base:   %+v\n  scaled: %+v",
				seed, k, base, scaled)
		}
	}
}

// TestEnergyInertMatchesDisabled is the energy model's policy-off
// differential: a battery too large to deplete within the horizon, with the
// election weighting switched off, must leave the event stream bit-identical
// to a run with no energy model at all — drain accounting is pure
// bookkeeping until it can influence an election, a rotation or a death.
func TestEnergyInertMatchesDisabled(t *testing.T) {
	p := scenario.Base(100)
	p.Duration = PinnedDuration
	p.Seed = 1

	cfg, err := p.Config(cluster.MOBIC)
	if err != nil {
		t.Fatal(err)
	}
	disabled, _, err := DigestRun(cfg)
	if err != nil {
		t.Fatal(err)
	}

	inertCfg, err := p.Config(cluster.MOBIC)
	if err != nil {
		t.Fatal(err)
	}
	ec := energy.Default()
	ec.InitialJ = 1e9
	ec.ElectionWeight = 0
	inertCfg.Energy = &ec
	inert, _, err := DigestRun(inertCfg)
	if err != nil {
		t.Fatal(err)
	}
	if disabled != inert {
		t.Errorf("inert energy model changed the run\n  disabled: %+v\n  inert:    %+v", disabled, inert)
	}
}

// TestReassignRoundsZeroMatchesLCC is adaptive Lowest-ID's policy-off
// differential: with tenure expiry disabled (ReassignRounds = 0) the
// effective ID never moves, so the algorithm must collapse to plain LCC —
// same elections, same deliveries, bit for bit.
func TestReassignRoundsZeroMatchesLCC(t *testing.T) {
	frozen := cluster.AdaptiveLowestID
	frozen.ReassignRounds = 0
	for _, seed := range GoldenSeeds() {
		p := scenario.Base(100)
		p.Duration = PinnedDuration
		p.Seed = seed
		a := digestParams(t, p, cluster.LCC)
		b := digestParams(t, p, frozen)
		if a != b {
			t.Errorf("seed %d: ReassignRounds = 0 diverged from LCC\n  lcc:      %+v\n  reassign: %+v",
				seed, a, b)
		}
	}
}

// headDuty runs cfg and returns the seconds each node spent as clusterhead
// before the cutoff time, reconstructed from the role-change event stream.
func headDuty(t *testing.T, cfg simnet.Config, cutoff float64) []float64 {
	t.Helper()
	duty := make([]float64, cfg.N)
	since := make([]float64, cfg.N)
	isHead := make([]bool, cfg.N)
	prev := cfg.Observer
	cfg.Observer = func(ev trace.Event) {
		if ev.Kind == trace.KindRoleChange {
			id := ev.Node
			head := ev.Value == float64(cluster.RoleHead)
			if isHead[id] && !head {
				duty[id] += min(ev.T, cutoff) - min(since[id], cutoff)
			}
			if !isHead[id] && head {
				since[id] = ev.T
			}
			isHead[id] = head
		}
		if prev != nil {
			prev(ev)
		}
	}
	net, err := simnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for id := range duty {
		if isHead[id] {
			duty[id] += cutoff - min(since[id], cutoff)
		}
	}
	return duty
}

// TestAdaptiveIDElectionFollowsLabels is the deliberate inverse of the
// MOBIC relabeling oracle: adaptive Lowest-ID elects on identifiers, so node
// relabeling must NOT be invariant. Reversing which node rides which
// trajectory keeps the physical scenario identical, yet the head role must
// keep chasing the low labels — the duty-weighted mean head ID stays well
// below the population midpoint in both runs, which means relabeling moved
// the role onto physically different nodes. Duty time, not election counts,
// carries the signal: the startup storm makes every isolated node a head
// once, but only local label minima survive contention and accumulate
// tenure. The window ends before the first tenure expiry (ReassignRounds
// beacons in), because past that point the rotation policy deliberately
// erodes the bias — spreading the role across labels is its whole job. A
// regression that ran the rotation from t = 0, or let a measured weight
// displace the ID in the election, erases the early bias and fails here.
func TestAdaptiveIDElectionFollowsLabels(t *testing.T) {
	p := scenario.Base(100)
	p.Duration = PinnedDuration
	p.Seed = 1
	cfg, err := p.Config(cluster.AdaptiveLowestID)
	if err != nil {
		t.Fatal(err)
	}
	// Everything before the first possible tenure expiry is pure Lowest-ID.
	cutoff := float64(cluster.AdaptiveLowestID.ReassignRounds) * p.BI

	perm := make([]int, cfg.N)
	for i := range perm {
		perm[i] = cfg.N - 1 - i
	}
	relabeled := cfg
	relabeled.Mobility = &permutedMobility{Model: cfg.Mobility, perm: perm}

	midpoint := float64(cfg.N-1) / 2
	for name, c := range map[string]simnet.Config{"base": cfg, "relabeled": relabeled} {
		duty := headDuty(t, c, cutoff)
		var weighted, total float64
		for id, d := range duty {
			weighted += float64(id) * d
			total += d
		}
		if total == 0 {
			t.Fatalf("%s: no head duty recorded before t=%g", name, cutoff)
		}
		mean := weighted / total
		t.Logf("%s: %.0f head-seconds before t=%g, duty-weighted mean head ID %.1f (midpoint %.1f)",
			name, total, cutoff, mean, midpoint)
		if mean > midpoint-5 {
			t.Errorf("%s: duty-weighted mean head ID %.1f shows no low-label bias (midpoint %.1f); the election no longer follows labels",
				name, mean, midpoint)
		}
	}
}
