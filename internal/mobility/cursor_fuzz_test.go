package mobility

import (
	"math"
	"testing"

	"mobic/internal/geom"
)

// cursorTrajectory decodes a trajectory from legs, three bytes a waypoint:
// a time step (low 7 bits, in quarter seconds; a zero step collapses onto
// the previous waypoint) with a pause flag (high bit: stay put) and the
// position's x and y. The first waypoint sits at t = 10 s, so queries can
// fall before the start.
func cursorTrajectory(legs []byte) *Trajectory {
	var b Builder
	t := 10.0
	p := geom.Point{}
	for k := 0; k+2 < len(legs); k += 3 {
		if k > 0 {
			t += float64(legs[k]&0x7f) / 4
		}
		if k == 0 || legs[k]&0x80 == 0 {
			p = geom.Point{X: float64(legs[k+1]) * 3.7, Y: float64(legs[k+2]) * 2.9}
		}
		b.Append(t, p)
	}
	if len(legs) < 3 {
		b.Append(t, p)
	}
	tr, err := b.Build()
	if err != nil {
		panic(err) // times only grow
	}
	return tr
}

// cursorQuery decodes one query byte against the trajectory's waypoint
// times and the previous query: the top two bits pick an exact waypoint
// time, a point inside a leg, a step of up to ±8 s from the previous
// query, or a time before the start or after the end.
func cursorQuery(q byte, times []float64, prev float64) float64 {
	n := len(times)
	v := int(q & 0x3f)
	switch q >> 6 {
	case 0:
		return times[v%n]
	case 1:
		i := v % n
		if i+1 < n {
			return times[i] + (times[i+1]-times[i])*float64(v)/64
		}
		return times[i] + float64(v)/8
	case 2:
		return prev + float64(v-32)/4
	default:
		if v&1 == 0 {
			return times[0] - float64(v)/3
		}
		return times[n-1] + float64(v)/3
	}
}

// FuzzCursorMatchesAt checks that a cursor answers every query sequence
// exactly as Trajectory.At does, bit for bit: forward and backward steps,
// exact waypoint times, pauses, and times before the start and after the
// end. Its seed corpus is checked in under testdata/fuzz.
func FuzzCursorMatchesAt(f *testing.F) {
	f.Fuzz(func(t *testing.T, legs, queries []byte) {
		tr := cursorTrajectory(legs)
		c := NewCursor(tr)
		prev := tr.Start()
		for k, q := range queries {
			at := cursorQuery(q, tr.times, prev)
			want, got := tr.At(at), c.At(at)
			if math.Float64bits(want.X) != math.Float64bits(got.X) ||
				math.Float64bits(want.Y) != math.Float64bits(got.Y) {
				t.Fatalf("query %d at t=%v: cursor %v, At %v", k, at, got, want)
			}
			prev = at
		}
	})
}
