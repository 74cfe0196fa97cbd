package spatial

import (
	"math"
	"math/rand/v2"
	"testing"

	"mobic/internal/geom"
)

// bruteForce is the O(N) reference oracle: every node pts[id] within radius
// of center, excluding `exclude`, in ascending id order.
func bruteForce(pts []geom.Point, center geom.Point, radius float64, exclude int32) []int32 {
	var out []int32
	for id, p := range pts {
		if int32(id) != exclude && p.DistSq(center) <= radius*radius {
			out = append(out, int32(id))
		}
	}
	return out
}

// TestQueryRangeCellBoundaries pins the classic grid failure modes: points
// sitting exactly on cell edges and corners belong to exactly one cell, and
// queries whose disc touches a boundary must still search the cells on both
// sides. Every case is checked against the brute-force oracle, so the table
// documents the intent while the oracle guards the math.
func TestQueryRangeCellBoundaries(t *testing.T) {
	// 100x100 area, 10-unit cells: boundaries at every multiple of 10.
	cases := []struct {
		name   string
		nodes  []geom.Point
		center geom.Point
		radius float64
	}{
		{
			name:   "node exactly on vertical cell edge",
			nodes:  []geom.Point{{X: 10, Y: 5}, {X: 9.999, Y: 5}, {X: 10.001, Y: 5}},
			center: geom.Point{X: 12, Y: 5},
			radius: 2.5,
		},
		{
			name:   "node exactly on horizontal cell edge",
			nodes:  []geom.Point{{X: 5, Y: 20}, {X: 5, Y: 19.999}},
			center: geom.Point{X: 5, Y: 21},
			radius: 1.5,
		},
		{
			name:   "node on corner shared by four cells",
			nodes:  []geom.Point{{X: 10, Y: 10}},
			center: geom.Point{X: 9, Y: 9},
			radius: 1.5,
		},
		{
			name:   "query centered on a corner",
			nodes:  []geom.Point{{X: 9, Y: 9}, {X: 11, Y: 9}, {X: 9, Y: 11}, {X: 11, Y: 11}},
			center: geom.Point{X: 10, Y: 10},
			radius: math.Sqrt2,
		},
		{
			name:   "radius exactly reaching a node across a boundary",
			nodes:  []geom.Point{{X: 20, Y: 50}, {X: 20.0001, Y: 50}},
			center: geom.Point{X: 15, Y: 50},
			radius: 5,
		},
		{
			name:   "node on the area's max corner lands in the last cell",
			nodes:  []geom.Point{{X: 100, Y: 100}, {X: 99, Y: 99}},
			center: geom.Point{X: 100, Y: 100},
			radius: 2,
		},
		{
			name:   "node on the area's min corner",
			nodes:  []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}},
			center: geom.Point{X: 0, Y: 0},
			radius: 1,
		},
		{
			name:   "query disc clipped by the area edge",
			nodes:  []geom.Point{{X: 2, Y: 50}, {X: 7, Y: 50}},
			center: geom.Point{X: 0, Y: 50},
			radius: 6,
		},
		{
			name:   "zero radius hits only exact co-location",
			nodes:  []geom.Point{{X: 40, Y: 40}, {X: 40.0000001, Y: 40}},
			center: geom.Point{X: 40, Y: 40},
			radius: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGrid(t, geom.Square(100), 10, len(tc.nodes))
			for i, p := range tc.nodes {
				g.Update(int32(i), p)
			}
			got := g.QueryRange(tc.center, tc.radius, -1, nil)
			sortIDs(got)
			want := bruteForce(tc.nodes, tc.center, tc.radius, -1)
			if !equalIDs(got, want) {
				t.Errorf("QueryRange = %v, brute force = %v", got, want)
			}
		})
	}
}

// TestQueryRangeRadiusExceedsArea: a disc larger than the whole area must
// return every node no matter where the center sits — including centers
// outside the area, where the naive cell-window arithmetic goes negative
// and must clamp instead of slicing out of bounds.
func TestQueryRangeRadiusExceedsArea(t *testing.T) {
	const n = 25
	g := mustGrid(t, geom.Square(100), 10, n)
	for i := 0; i < n; i++ {
		g.Update(int32(i), geom.Point{X: float64(i%5) * 25, Y: float64(i/5) * 25})
	}
	centers := []geom.Point{
		{X: 50, Y: 50},
		{X: 0, Y: 0},
		{X: 100, Y: 100},
		{X: -300, Y: -300}, // far outside, min corner side
		{X: 400, Y: 50},    // far outside, one axis only
	}
	for _, c := range centers {
		radius := 1000.0 // covers the whole area from any of these centers
		got := g.QueryRange(c, radius, -1, nil)
		if len(got) != n {
			t.Errorf("center %v: %d of %d nodes returned", c, len(got), n)
		}
	}
	// Infinite radius must behave the same, not overflow the cell window.
	got := g.QueryRange(geom.Point{X: 50, Y: 50}, math.Inf(1), -1, nil)
	if len(got) != n {
		t.Errorf("infinite radius: %d of %d nodes returned", len(got), n)
	}
}

// TestQueryRangeDstReuse pins the append contract: QueryRange extends dst,
// never touches the prefix, and tolerates the caller recycling the returned
// slice — the allocation-free pattern the channel hot path relies on.
func TestQueryRangeDstReuse(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 10, 4)
	g.Update(1, geom.Point{X: 10, Y: 10})
	g.Update(2, geom.Point{X: 12, Y: 10})
	g.Update(3, geom.Point{X: 90, Y: 90})

	t.Run("prefix preserved", func(t *testing.T) {
		dst := []int32{-7, -8}
		got := g.QueryRange(geom.Point{X: 11, Y: 10}, 3, -1, dst)
		if len(got) != 4 || got[0] != -7 || got[1] != -8 {
			t.Fatalf("prefix clobbered: %v", got)
		}
		tail := append([]int32(nil), got[2:]...)
		sortIDs(tail)
		if tail[0] != 1 || tail[1] != 2 {
			t.Errorf("appended ids = %v, want [1 2]", tail)
		}
	})

	t.Run("recycled buffer leaves no stale entries", func(t *testing.T) {
		buf := g.QueryRange(geom.Point{X: 11, Y: 10}, 3, -1, nil)
		if len(buf) != 2 {
			t.Fatalf("first query = %v", buf)
		}
		// Second query into the same backing array finds one node; the
		// result must be exactly that node even though the buffer still
		// holds the previous ids beyond len.
		buf = g.QueryRange(geom.Point{X: 90, Y: 90}, 1, -1, buf[:0])
		if len(buf) != 1 || buf[0] != 3 {
			t.Errorf("recycled query = %v, want [3]", buf)
		}
	})

	t.Run("nil dst allocates", func(t *testing.T) {
		if got := g.QueryRange(geom.Point{X: 90, Y: 90}, 1, -1, nil); len(got) != 1 {
			t.Errorf("nil dst = %v", got)
		}
	})

	t.Run("empty result returns dst unchanged", func(t *testing.T) {
		dst := []int32{42}
		got := g.QueryRange(geom.Point{X: 50, Y: 50}, 0.5, -1, dst)
		if len(got) != 1 || got[0] != 42 {
			t.Errorf("empty-result query changed dst: %v", got)
		}
	})
}

// TestQueryRangeDifferentialRandomized sweeps random point sets — with a
// fraction deliberately outside the area so the clamped boundary cells hold
// extra load — across radii from zero to area-covering, always against the
// brute-force oracle.
func TestQueryRangeDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.IntN(80)
		g := mustGrid(t, geom.Square(200), 23, n) // cell size not dividing the side
		pts := make([]geom.Point, n)
		for i := range pts {
			p := geom.Point{X: rng.Float64()*200 - 0, Y: rng.Float64() * 200}
			if rng.IntN(10) == 0 { // 10% outside the area
				p.X += 250
			}
			pts[i] = p
			g.Update(int32(i), p)
		}
		for _, radius := range []float64{0, 5, 23, 46, 300} {
			center := geom.Point{X: rng.Float64() * 250, Y: rng.Float64() * 250}
			exclude := int32(rng.IntN(n))
			got := g.QueryRange(center, radius, exclude, nil)
			sortIDs(got)
			want := bruteForce(pts, center, radius, exclude)
			if !equalIDs(got, want) {
				t.Fatalf("trial %d radius %g center %v: grid %v, brute force %v",
					trial, radius, center, got, want)
			}
		}
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
