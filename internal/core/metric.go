// Package core implements the paper's primary contribution: the aggregate
// local mobility metric of Section 3.1.
//
// Every node Y measures the received power of two successive "hello"
// transmissions from each neighbor X and computes the pairwise relative
// mobility (equation 1):
//
//	Mrel_Y(X) = 10 * log10( RxPr_new(X->Y) / RxPr_old(X->Y) )   [dB]
//
// A negative value means X and Y are drifting apart, a positive value that
// they are closing in. The aggregate local mobility at Y (equation 2) is the
// variance about zero of the pairwise values over all current neighbors:
//
//	M_Y = var0(Mrel_Y(X1), ..., Mrel_Y(Xm)) = E[Mrel^2]
//
// A small M_Y means Y is nearly stationary relative to its neighborhood and
// is therefore a good clusterhead candidate; MOBIC (internal/cluster) elects
// the node with the lowest M in each 2-hop neighborhood.
//
// The paper's Section 5 extension of keeping history is available per link
// (Link.Observe's pairAlpha); smoothing the aggregate itself is a
// stats.EWMA the caller applies to successive M values.
package core

import (
	"errors"
	"fmt"
	"math"

	"mobic/internal/stats"
)

// ErrNonPositivePower is returned when a received power sample is zero,
// negative, NaN or infinite. Physical received powers are strictly positive.
var ErrNonPositivePower = errors.New("core: received power must be positive and finite")

// RelativeMobility returns the pairwise relative mobility metric in dB for
// two successive received powers from the same neighbor (paper equation 1).
func RelativeMobility(prOld, prNew float64) (float64, error) {
	if !(prOld > 0) || math.IsInf(prOld, 1) {
		return 0, fmt.Errorf("%w: old=%g", ErrNonPositivePower, prOld)
	}
	if !(prNew > 0) || math.IsInf(prNew, 1) {
		return 0, fmt.Errorf("%w: new=%g", ErrNonPositivePower, prNew)
	}
	return 10 * math.Log10(prNew/prOld), nil
}

// AggregateLocalMobility returns the variance-about-zero of a set of pairwise
// relative mobility samples (paper equation 2). It returns 0 for an empty
// set, matching the paper's initialization of M to 0.
func AggregateLocalMobility(pairwise []float64) float64 {
	return stats.Var0(pairwise)
}

// CheckPower returns ErrNonPositivePower unless pr is a usable received
// power: positive and finite.
func CheckPower(pr float64) error {
	if !(pr > 0) || math.IsInf(pr, 1) {
		return fmt.Errorf("%w: %g", ErrNonPositivePower, pr)
	}
	return nil
}

// Link is one neighbor's reception history at the receiving node: the two
// most recent received powers, which are exactly what equation 1 needs, and
// the link's smoothed Mrel when pairwise history is on. Older history is
// deliberately not kept. The zero value is a link not yet heard.
//
// A node keeps one Link per neighbor and folds their Rel values into
// AggregateLocalMobility in ascending neighbor-id order: floating-point
// addition is not associative, and a canonical order keeps the last bits of
// M — and therefore election outcomes — identical across runs.
type Link struct {
	prevPr, lastPr float64
	// smoothedRel is the per-link EWMA of Mrel (pairwise history).
	smoothedRel float64
	count       uint8 // receptions recorded, saturating at 2
	smoothed    bool
}

// Observe records one received hello of power pr (Watts), which must pass
// CheckPower. A pairAlpha in (0, 1) enables the pairwise history extension:
// the link's Mrel stream is smoothed by an EWMA of that factor before it
// enters the aggregate, which remembers per-link trends (a steadily
// approaching neighbor keeps a large |Mrel|) where smoothing the aggregate
// only remembers overall turbulence. Any other pairAlpha keeps the paper's
// memoryless metric.
func (l *Link) Observe(pr, pairAlpha float64) {
	l.prevPr, l.lastPr = l.lastPr, pr
	if l.count < 2 {
		l.count++
	}
	if l.count < 2 || !(pairAlpha > 0 && pairAlpha < 1) {
		return
	}
	rel, err := RelativeMobility(l.prevPr, l.lastPr)
	if err != nil {
		return
	}
	if !l.smoothed {
		l.smoothedRel = rel
		l.smoothed = true
	} else {
		l.smoothedRel = pairAlpha*rel + (1-pairAlpha)*l.smoothedRel
	}
}

// Rel returns the link's pairwise relative mobility in dB — smoothed under
// pairwise history — and whether the link contributes to the aggregate: only
// neighbors heard at least twice do.
func (l *Link) Rel() (float64, bool) {
	if l.count < 2 {
		return 0, false
	}
	if l.smoothed {
		return l.smoothedRel, true
	}
	rel, err := RelativeMobility(l.prevPr, l.lastPr)
	return rel, err == nil
}
