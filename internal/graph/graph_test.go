package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"mobic/internal/geom"
)

// line builds a path graph 0-1-2-...-k with unit spacing and radius 1.
func line(k int) *Adjacency {
	pos := make([]geom.Point, k)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i), Y: 0}
	}
	return FromPositions(pos, 1.0)
}

func TestFromPositionsAdjacency(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 100, Y: 100}}
	g := FromPositions(pos, 5)
	if !g.Adjacent(0, 1) || !g.Adjacent(1, 0) {
		t.Error("nodes at distance 5 should be adjacent (boundary inclusive)")
	}
	if g.Adjacent(0, 2) || g.Adjacent(1, 2) {
		t.Error("far node should not be adjacent")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Errorf("degrees = %d, %d", g.Degree(0), g.Degree(2))
	}
	if g.N() != 3 {
		t.Errorf("N = %d", g.N())
	}
}

func TestNegativeRadius(t *testing.T) {
	g := FromPositions([]geom.Point{{}, {}}, -1)
	if g.Degree(0) != 0 {
		t.Error("negative radius should produce no edges")
	}
}

func TestBFSDist(t *testing.T) {
	g := line(5)
	dist, err := g.BFSDist(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if _, err := g.BFSDist(-1); err == nil {
		t.Error("out-of-range start should error")
	}
	if _, err := g.BFSDist(5); err == nil {
		t.Error("out-of-range start should error")
	}
}

func TestBFSDistUnreachable(t *testing.T) {
	pos := []geom.Point{{X: 0}, {X: 1}, {X: 100}}
	g := FromPositions(pos, 1)
	dist, err := g.BFSDist(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != -1 {
		t.Errorf("unreachable dist = %d, want -1", dist[2])
	}
}

func TestComponents(t *testing.T) {
	pos := []geom.Point{{X: 0}, {X: 1}, {X: 10}, {X: 11}, {X: 50}}
	g := FromPositions(pos, 1.5)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 2 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes = %d,%d,%d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
	if g.Connected() {
		t.Error("graph should not be connected")
	}
}

func TestConnected(t *testing.T) {
	if !line(4).Connected() {
		t.Error("path graph should be connected")
	}
	empty := FromPositions(nil, 1)
	if empty.Connected() {
		t.Error("empty graph should not report connected")
	}
	single := FromPositions([]geom.Point{{}}, 1)
	if !single.Connected() {
		t.Error("singleton graph is connected")
	}
}

func TestDiameter(t *testing.T) {
	if d := line(5).Diameter(); d != 4 {
		t.Errorf("path diameter = %d, want 4", d)
	}
	if d := FromPositions([]geom.Point{{}}, 1).Diameter(); d != 0 {
		t.Errorf("singleton diameter = %d, want 0", d)
	}
	// Clique of 4.
	pos := []geom.Point{{X: 0}, {X: 0.1}, {X: 0.2}, {X: 0.3}}
	if d := FromPositions(pos, 1).Diameter(); d != 1 {
		t.Errorf("clique diameter = %d, want 1", d)
	}
}

func TestSubgraphDiameter(t *testing.T) {
	g := line(6) // 0-1-2-3-4-5
	if d := g.SubgraphDiameter([]int32{1, 2, 3}); d != 2 {
		t.Errorf("subpath diameter = %d, want 2", d)
	}
	// Induced subgraph {0, 2} has no edge: disconnected.
	if d := g.SubgraphDiameter([]int32{0, 2}); d != -1 {
		t.Errorf("disconnected subgraph = %d, want -1", d)
	}
	if d := g.SubgraphDiameter([]int32{3}); d != 0 {
		t.Errorf("singleton subgraph = %d, want 0", d)
	}
	if d := g.SubgraphDiameter(nil); d != 0 {
		t.Errorf("empty subgraph = %d, want 0", d)
	}
}

// A star (head + members in range) has cluster diameter <= 2 — the shape
// Theorem 1 guarantees.
func TestStarClusterDiameterAtMostTwo(t *testing.T) {
	pos := []geom.Point{
		{X: 0, Y: 0}, // head
		{X: 1, Y: 0}, // members around it
		{X: -1, Y: 0},
		{X: 0, Y: 1},
		{X: 0, Y: -1},
	}
	g := FromPositions(pos, 1.0)
	d := g.SubgraphDiameter([]int32{0, 1, 2, 3, 4})
	if d < 0 || d > 2 {
		t.Errorf("star diameter = %d, want <= 2", d)
	}
}

// Property: components partition the node set.
func TestComponentsPartitionProperty(t *testing.T) {
	prop := func(seed uint64, radiusSeed uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 5 + int(seed%40)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		}
		g := FromPositions(pos, 20+float64(radiusSeed))
		seen := make(map[int32]int)
		for _, comp := range g.Components() {
			for _, v := range comp {
				seen[v]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges.
func TestBFSEdgeConsistencyProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		n := 10 + int(seed%20)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		}
		g := FromPositions(pos, 60)
		dist, err := g.BFSDist(0)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for _, j := range g.Neighbors(int32(i)) {
				di, dj := dist[i], dist[j]
				if di >= 0 && dj >= 0 && abs(di-dj) > 1 {
					return false // adjacent nodes can differ by at most 1
				}
				if (di == -1) != (dj == -1) {
					return false // adjacency implies same reachability
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// referenceAdjacency is the exhaustive O(n^2) unit-disk construction the
// cell-bucketed Rebuild must reproduce list for list.
func referenceAdjacency(pos []geom.Point, radius float64) [][]int32 {
	adj := make([][]int32, len(pos))
	if radius < 0 {
		return adj
	}
	rSq := radius * radius
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if pos[i].DistSq(pos[j]) <= rSq {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	return adj
}

// TestRebuildMatchesReference compares the cell-bucketed Rebuild with the
// O(n^2) reference over random point sets that mix duplicates, points far
// outside the nominal 0-500 area and non-finite coordinates, at radii from
// zero through the whole spread to +Inf. One Adjacency is reused throughout,
// so stale scratch from a previous shape would also show up.
func TestRebuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	g := &Adjacency{}
	for trial := 0; trial < 200; trial++ {
		n := rng.IntN(120)
		pos := make([]geom.Point, n)
		for i := range pos {
			switch k := rng.IntN(20); {
			case k == 0 && i > 0: // duplicate an earlier point
				pos[i] = pos[rng.IntN(i)]
			case k == 1: // far outside the area
				pos[i] = geom.Point{X: -2000 + 6000*rng.Float64(), Y: 3000 * rng.Float64()}
			case k == 2 && trial%4 == 0: // non-finite
				pos[i] = geom.Point{X: math.Inf(1 - 2*rng.IntN(2)), Y: math.NaN()}
				if rng.IntN(2) == 0 {
					pos[i] = geom.Point{X: 10, Y: math.Inf(-1)}
				}
			default:
				pos[i] = geom.Point{X: 500 * rng.Float64(), Y: 500 * rng.Float64()}
			}
		}
		for _, radius := range []float64{0, 0.5, 37, 250, 5000, 1e9, math.Inf(1), -1, math.NaN()} {
			g.Rebuild(pos, radius)
			want := referenceAdjacency(pos, radius)
			if g.N() != n {
				t.Fatalf("trial %d radius %g: N = %d, want %d", trial, radius, g.N(), n)
			}
			for i := range want {
				if !slices.Equal(g.Neighbors(int32(i)), want[i]) {
					t.Fatalf("trial %d radius %g node %d (%v): got %v, want %v",
						trial, radius, i, pos[i], g.Neighbors(int32(i)), want[i])
				}
			}
		}
	}
}

// TestRebuildWarmAllocFree pins the simulator sampler's contract: once the
// graph has been sized, Rebuild plus ComponentStats over moving points of
// the same count allocate nothing.
func TestRebuildWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 400
	// A few snapshots with different spreads, cycled like a sampler
	// revisiting a moving network.
	snaps := make([][]geom.Point, 4)
	for s := range snaps {
		side := 1000 + 500*float64(s)
		snaps[s] = make([]geom.Point, n)
		for i := range snaps[s] {
			snaps[s][i] = geom.Point{X: side * rng.Float64(), Y: side * rng.Float64()}
		}
	}
	g := &Adjacency{}
	for _, pos := range snaps {
		g.Rebuild(pos, 150)
		g.ComponentStats()
	}
	k := 0
	allocs := testing.AllocsPerRun(20, func() {
		g.Rebuild(snaps[k%len(snaps)], 150)
		g.ComponentStats()
		k++
	})
	if allocs > 0 {
		t.Errorf("warm Rebuild+ComponentStats allocates %.1f objects, want 0", allocs)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
