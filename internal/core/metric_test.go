package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mobic/internal/radio"
	"mobic/internal/stats"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRelativeMobilitySigns(t *testing.T) {
	tests := []struct {
		name           string
		prOld, prNew   float64
		wantSign       int
		wantMagnitudes float64
	}{
		{name: "moving apart is negative", prOld: 1e-9, prNew: 1e-10, wantSign: -1, wantMagnitudes: 10},
		{name: "closing in is positive", prOld: 1e-10, prNew: 1e-9, wantSign: 1, wantMagnitudes: 10},
		{name: "stationary is zero", prOld: 3e-9, prNew: 3e-9, wantSign: 0, wantMagnitudes: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := RelativeMobility(tt.prOld, tt.prNew)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tt.wantSign < 0 && got >= 0:
				t.Errorf("got %v, want negative", got)
			case tt.wantSign > 0 && got <= 0:
				t.Errorf("got %v, want positive", got)
			case tt.wantSign == 0 && got != 0:
				t.Errorf("got %v, want 0", got)
			}
			if !almostEqual(math.Abs(got), tt.wantMagnitudes, 1e-9) {
				t.Errorf("|Mrel| = %v, want %v", math.Abs(got), tt.wantMagnitudes)
			}
		})
	}
}

func TestRelativeMobilityRejectsBadPowers(t *testing.T) {
	bad := []float64{0, -1e-9, math.NaN(), math.Inf(1)}
	for _, b := range bad {
		if _, err := RelativeMobility(b, 1e-9); err == nil {
			t.Errorf("old=%v should error", b)
		}
		if _, err := RelativeMobility(1e-9, b); err == nil {
			t.Errorf("new=%v should error", b)
		}
	}
}

// Antisymmetry: Mrel(a->b) = -Mrel(b->a).
func TestRelativeMobilityAntisymmetryProperty(t *testing.T) {
	anti := func(aSeed, bSeed uint32) bool {
		a := 1e-12 * (1 + float64(aSeed))
		b := 1e-12 * (1 + float64(bSeed))
		ab, err1 := RelativeMobility(a, b)
		ba, err2 := RelativeMobility(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(ab, -ba, 1e-9)
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Error(err)
	}
}

// Under the two-ray model beyond crossover, Mrel for a node moving from d1 to
// d2 is 40*log10(d1/d2) — the distance law the paper's metric rides on.
func TestRelativeMobilityDistanceCoupling(t *testing.T) {
	m := radio.NewTwoRayGround()
	const pt = radio.DefaultTxPower
	d1, d2 := 120.0, 180.0
	rel, err := RelativeMobility(m.RxPower(pt, d1), m.RxPower(pt, d2))
	if err != nil {
		t.Fatal(err)
	}
	want := 40 * math.Log10(d1/d2)
	if !almostEqual(rel, want, 1e-9) {
		t.Errorf("Mrel = %v, want %v", rel, want)
	}
	if rel >= 0 {
		t.Error("moving from 120 m to 180 m away must give negative Mrel")
	}
}

func TestAggregateLocalMobility(t *testing.T) {
	if got := AggregateLocalMobility(nil); got != 0 {
		t.Errorf("empty aggregate = %v, want 0 (paper init)", got)
	}
	got := AggregateLocalMobility([]float64{3, -4})
	if !almostEqual(got, (9.0+16.0)/2, 1e-12) {
		t.Errorf("aggregate = %v, want 12.5", got)
	}
}

// The TestTracker* tests cover a node's reception tracking: one Link per
// neighbor and the aggregate folded over them.

// heard returns a link that received the given powers in order.
func heard(prs ...float64) Link {
	var l Link
	for _, pr := range prs {
		l.Observe(pr, 0)
	}
	return l
}

// mobility folds links into M the way a node does: eligible links' Rel
// values, in the given (ascending-id) order.
func mobility(links ...Link) float64 {
	var rels []float64
	for i := range links {
		if rel, ok := links[i].Rel(); ok {
			rels = append(rels, rel)
		}
	}
	return AggregateLocalMobility(rels)
}

func TestTrackerNeedsTwoSamples(t *testing.T) {
	once := heard(1e-9)
	if _, ok := once.Rel(); ok || mobility(once) != 0 {
		t.Errorf("link heard once is eligible or moves M (%v)", mobility(once))
	}
	twice := heard(1e-9, 2e-9)
	want, err := RelativeMobility(1e-9, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rel, ok := twice.Rel(); !ok || rel != want {
		t.Errorf("Rel = %v, %v; want %v, true", rel, ok, want)
	}
	if got := mobility(twice); !almostEqual(got, want*want, 1e-9) {
		t.Errorf("aggregate = %v, want %v", got, want*want)
	}
}

func TestTrackerRejectsBadPower(t *testing.T) {
	for _, bad := range []float64{0, -1e-9, math.NaN(), math.Inf(1)} {
		if err := CheckPower(bad); !errors.Is(err, ErrNonPositivePower) {
			t.Errorf("CheckPower(%v) = %v, want ErrNonPositivePower", bad, err)
		}
	}
	if err := CheckPower(1e-9); err != nil {
		t.Errorf("CheckPower(1e-9) = %v", err)
	}
}

func TestTrackerMultipleNeighbors(t *testing.T) {
	// Neighbor 1: power doubles (+3.01 dB). Neighbor 2: halves (-3.01 dB).
	// Neighbor 3: only one sample (excluded).
	db := 10 * math.Log10(2)
	if got := mobility(heard(1e-9, 2e-9), heard(4e-9, 2e-9), heard(5e-9)); !almostEqual(got, db*db, 1e-9) {
		t.Errorf("aggregate = %v, want %v (symmetric +-3dB)", got, db*db)
	}
}

func TestTrackerSlidingWindow(t *testing.T) {
	l := heard(1e-9, 2e-9, 8e-9) // the latest pair is (2e-9 -> 8e-9): +6.02 dB
	want, err := RelativeMobility(2e-9, 8e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rel, ok := l.Rel(); !ok || rel != want {
		t.Errorf("Rel = %v, %v; want %v, true", rel, ok, want)
	}
}

func TestTrackerStationaryNodeHasZeroM(t *testing.T) {
	// A node whose neighbors' powers never change is perfectly non-mobile.
	still := heard(1e-9, 1e-9)
	if got := mobility(still, still, still, still, still); got != 0 {
		t.Errorf("stationary aggregate = %v, want 0", got)
	}
}

// A node expires a neighbor by dropping its Link: M is then folded over the
// survivors only, and a neighbor heard again starts from a zero Link whose
// first pair uses only powers received after it came back.
func TestTrackerExpire(t *testing.T) {
	gone, kept := heard(1e-9, 4e-9), heard(1e-9, 1e-9)
	if mobility(gone, kept) == 0 {
		t.Fatal("a +6 dB neighbor should move M before it expires")
	}
	if got := mobility(kept); got != 0 {
		t.Errorf("aggregate after expiry = %v, want 0", got)
	}
	var back Link
	back.Observe(4e-9, 0)
	if _, ok := back.Rel(); ok {
		t.Error("re-heard neighbor is eligible after one reception")
	}
	back.Observe(4e-9, 0)
	if rel, ok := back.Rel(); !ok || rel != 0 {
		t.Errorf("re-heard Rel = %v, %v; want 0, true (no pre-expiry history)", rel, ok)
	}
}

// Forgetting a neighbor (or resetting a crashed node) resets its Link to the
// zero value, which also clears the pairwise-EWMA history: the next pair
// primes the smoother afresh instead of blending with the old value.
func TestTrackerForgetAndReset(t *testing.T) {
	l := heard(1e-9)
	l.Observe(2e-9, 0.5)
	l.Observe(2e-9, 0.5)
	if rel, _ := l.Rel(); rel == 0 {
		t.Fatal("smoothed Rel should remember the +3 dB pair")
	}
	l = Link{}
	if _, ok := l.Rel(); ok {
		t.Error("a forgotten link is still eligible")
	}
	l.Observe(2e-9, 0.5)
	l.Observe(2e-9, 0.5)
	if rel, ok := l.Rel(); !ok || rel != 0 {
		t.Errorf("Rel after reset = %v, %v; want 0, true", rel, ok)
	}
}

// The more mobile the neighborhood, the larger M: moving neighbors at
// various rates must order aggregates correctly.
func TestTrackerOrdersMobility(t *testing.T) {
	model := radio.NewTwoRayGround()
	const pt = radio.DefaultTxPower
	agg := func(d0, d1 float64) float64 {
		return mobility(heard(model.RxPower(pt, d0), model.RxPower(pt, d1)))
	}
	slow := agg(100, 105)  // 2.5 m/s drift
	fast := agg(100, 140)  // 20 m/s drift
	still := agg(100, 100) // no drift
	if !(still < slow && slow < fast) {
		t.Errorf("ordering violated: still=%v slow=%v fast=%v", still, slow, fast)
	}
}

// Aggregate history (paper Section 5) is a stats.EWMA the node applies to
// successive M values.
func TestTrackerEWMA(t *testing.T) {
	smoother := stats.NewEWMA(0.5)
	// First aggregate: one neighbor at +3.01 dB primes the smoother.
	db := 10 * math.Log10(2)
	first := smoother.Update(mobility(heard(1e-9, 2e-9)))
	if !almostEqual(first, db*db, 1e-9) {
		t.Fatalf("first smoothed aggregate = %v, want %v", first, db*db)
	}
	// The neighborhood goes quiet: raw M drops to 0, smoothed decays halfway.
	if second := smoother.Update(mobility(heard(1e-9, 2e-9, 2e-9))); !almostEqual(second, first/2, 1e-9) {
		t.Errorf("smoothed aggregate = %v, want %v", second, first/2)
	}
}

func TestTrackerEWMAResetClearsSmoother(t *testing.T) {
	smoother := stats.NewEWMA(0.5)
	l := heard(1e-9, 4e-9)
	if smoother.Update(mobility(l)) == 0 {
		t.Fatal("aggregate should be nonzero before reset")
	}
	// A reset node forgets its links and its smoother together.
	l = Link{}
	smoother.Reset()
	if got := smoother.Update(mobility(l)); got != 0 {
		t.Errorf("post-reset aggregate = %v, want 0", got)
	}
}

func TestTrackerPairwiseEWMA(t *testing.T) {
	var l Link
	// The first pair gives +3.01 dB; the smoothed value primes to exactly
	// that.
	l.Observe(1e-9, 0.5)
	l.Observe(2e-9, 0.5)
	db := 10 * math.Log10(2)
	if rel, ok := l.Rel(); !ok || !almostEqual(rel, db, 1e-9) {
		t.Fatalf("primed Rel = %v, %v; want %v", rel, ok, db)
	}
	// Next pair is flat (0 dB); smoothed halves.
	l.Observe(2e-9, 0.5)
	if rel, ok := l.Rel(); !ok || !almostEqual(rel, db/2, 1e-9) {
		t.Errorf("smoothed Rel = %v, %v; want %v", rel, ok, db/2)
	}
	// The aggregate uses the smoothed value.
	if got := mobility(l); !almostEqual(got, (db/2)*(db/2), 1e-9) {
		t.Errorf("aggregate = %v, want %v", got, (db/2)*(db/2))
	}
}

func TestPairwiseEWMAInvalidAlphaDisables(t *testing.T) {
	for _, alpha := range []float64{1.5, 1, 0, -0.5} {
		var l Link
		l.Observe(1e-9, alpha)
		l.Observe(2e-9, alpha)
		l.Observe(2e-9, alpha)
		if rel, ok := l.Rel(); !ok || rel != 0 {
			t.Errorf("alpha %v: Rel = %v, %v; want the memoryless 0", alpha, rel, ok)
		}
	}
}

// Property: the aggregate is always non-negative regardless of power
// sequences.
func TestAggregateNonNegativeProperty(t *testing.T) {
	nonNeg := func(powers []uint32) bool {
		var links [7]Link
		for i, p := range powers {
			links[i%7].Observe(1e-12*(1+float64(p%1000000)), 0)
		}
		return mobility(links[:]...) >= 0
	}
	if err := quick.Check(nonNeg, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkLinkObserveRel measures one reception plus the link's share of
// the mobility fold, over a 20-neighbor table.
func BenchmarkLinkObserveRel(b *testing.B) {
	var links [20]Link
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		l := &links[i%len(links)]
		l.Observe(1e-9*(1+float64(i%13)), 0)
		if rel, ok := l.Rel(); ok {
			sink += rel * rel
		}
	}
	_ = sink
}
