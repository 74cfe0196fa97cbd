package spatial

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"mobic/internal/geom"
)

func mustGrid(t *testing.T, area geom.Rect, cell float64, n int) *Grid {
	t.Helper()
	g, err := NewGrid(area, cell, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(geom.Rect{}, 10, 1); err == nil {
		t.Error("invalid area should error")
	}
	if _, err := NewGrid(geom.Square(100), 0, 1); err == nil {
		t.Error("zero cell size should error")
	}
	if _, err := NewGrid(geom.Square(100), -5, 1); err == nil {
		t.Error("negative cell size should error")
	}
	if _, err := NewGrid(geom.Square(100), 10, -1); err == nil {
		t.Error("negative node count should error")
	}
}

func TestUpdateAndQuery(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 10, 4)
	g.Update(1, geom.Point{X: 10, Y: 10})
	g.Update(2, geom.Point{X: 15, Y: 10})
	g.Update(3, geom.Point{X: 90, Y: 90})

	got := g.QueryRange(geom.Point{X: 10, Y: 10}, 6, -1, nil)
	sortIDs(got)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("QueryRange = %v, want [1 2]", got)
	}
}

func TestQueryExcludesSelf(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 10, 3)
	g.Update(1, geom.Point{X: 50, Y: 50})
	g.Update(2, geom.Point{X: 51, Y: 50})
	got := g.QueryRange(geom.Point{X: 50, Y: 50}, 5, 1, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("QueryRange excluding 1 = %v, want [2]", got)
	}
}

func TestBoundaryInclusive(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 25, 3)
	g.Update(1, geom.Point{X: 0, Y: 0})
	g.Update(2, geom.Point{X: 30, Y: 0})
	got := g.QueryRange(geom.Point{X: 0, Y: 0}, 30, 1, nil)
	if len(got) != 1 {
		t.Errorf("node exactly at radius should be included, got %v", got)
	}
}

func TestMoveBetweenCells(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 10, 2)
	g.Update(1, geom.Point{X: 5, Y: 5})
	g.Update(1, geom.Point{X: 95, Y: 95})
	if got := g.QueryRange(geom.Point{X: 5, Y: 5}, 8, -1, nil); len(got) != 0 {
		t.Errorf("old cell still returns node: %v", got)
	}
	if got := g.QueryRange(geom.Point{X: 95, Y: 95}, 8, -1, nil); len(got) != 1 {
		t.Errorf("new cell missing node: %v", got)
	}
	if got := g.QueryRange(geom.Point{X: 50, Y: 50}, math.Inf(1), -1, nil); len(got) != 1 {
		t.Errorf("moved node indexed %d times, want once", len(got))
	}
}

func TestMoveWithinCell(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 50, 2)
	g.Update(1, geom.Point{X: 10, Y: 10})
	g.Update(1, geom.Point{X: 12, Y: 10})
	if got := g.QueryRange(geom.Point{X: 12, Y: 10}, 0, -1, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("query at the new position = %v, want [1]", got)
	}
	if got := g.QueryRange(geom.Point{X: 10, Y: 10}, 1, -1, nil); len(got) != 0 {
		t.Errorf("query at the old position = %v, want none", got)
	}
}

func TestOutOfAreaPointsClampToEdgeCells(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 10, 2)
	g.Update(1, geom.Point{X: -5, Y: 200}) // outside area
	got := g.QueryRange(geom.Point{X: -5, Y: 200}, 1, -1, nil)
	if len(got) != 1 {
		t.Errorf("out-of-area node should still be findable, got %v", got)
	}
}

func TestNegativeRadius(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 10, 2)
	g.Update(1, geom.Point{X: 50, Y: 50})
	if got := g.QueryRange(geom.Point{X: 50, Y: 50}, -1, -1, nil); len(got) != 0 {
		t.Errorf("negative radius should return nothing, got %v", got)
	}
}

func TestCellSizeAccessor(t *testing.T) {
	g := mustGrid(t, geom.Square(100), 12.5, 0)
	if g.CellSize() != 12.5 {
		t.Errorf("CellSize = %v", g.CellSize())
	}
}

// Property: grid query returns exactly the brute-force neighbor set.
func TestGridMatchesBruteForceProperty(t *testing.T) {
	check := func(seed uint64, radiusSeed uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		area := geom.Square(670)
		const n = 60
		g, err := NewGrid(area, 67, n)
		if err != nil {
			return false
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 670, Y: rng.Float64() * 670}
			g.Update(int32(i), pts[i])
		}
		radius := 10 + float64(radiusSeed)
		center := pts[0]

		got := g.QueryRange(center, radius, 0, nil)
		sortIDs(got)

		var want []int32
		for i := 1; i < n; i++ {
			if pts[i].Dist(center) <= radius {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func sortIDs(ids []int32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func BenchmarkQueryRange(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	g, err := NewGrid(geom.Square(670), 67, 500)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		g.Update(int32(i), geom.Point{X: rng.Float64() * 670, Y: rng.Float64() * 670})
	}
	buf := make([]int32, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.QueryRange(geom.Point{X: 335, Y: 335}, 250, -1, buf[:0])
	}
}

// denseCenters are the query points of the dense-grid benchmark and test.
var denseCenters = [4]geom.Point{
	{X: 100, Y: 100}, {X: 335, Y: 335}, {X: 600, Y: 200}, {X: 50, Y: 650},
}

// denseGrid indexes 200 nodes spread over a 670 m square at a 250 m range.
func denseGrid(tb testing.TB) *Grid {
	tb.Helper()
	rng := rand.New(rand.NewPCG(3, 4))
	g, err := NewGrid(geom.Square(670), 250, 200)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		g.Update(int32(i), geom.Point{X: rng.Float64() * 670, Y: rng.Float64() * 670})
	}
	return g
}

// TestQueryRangeDenseAllocFree pins the broadcast hot path's index query at
// zero allocations once its destination buffer has grown.
func TestQueryRangeDenseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	g := denseGrid(t)
	buf := make([]int32, 0, 256)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.QueryRange(denseCenters[i%4], 250, int32(i%200), buf[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("QueryRange allocates %.1f times per query, want 0", allocs)
	}
	if len(buf) == 0 {
		t.Fatal("empty query")
	}
}

// BenchmarkQueryRangeDense measures the per-candidate cost of QueryRange on
// a dense neighborhood with a reused destination buffer — the exact shape of
// the broadcast hot path, where every candidate costs one position lookup
// plus one distance test. TestQueryRangeDenseAllocFree pins it at zero
// allocations.
func BenchmarkQueryRangeDense(b *testing.B) {
	g := denseGrid(b)
	buf := make([]int32, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.QueryRange(denseCenters[i%4], 250, int32(i%200), buf[:0])
	}
	if len(buf) == 0 {
		b.Fatal("empty query")
	}
}
