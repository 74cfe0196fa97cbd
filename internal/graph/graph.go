// Package graph provides adjacency analysis over node position snapshots:
// connected components, BFS distances and eccentricities. The test suite
// uses it to verify the paper's Theorem 1 (cluster diameter <= 2 hops, no
// two clusterheads in range) and the experiment harness uses it to report
// topology connectivity alongside clustering metrics.
package graph

import (
	"fmt"
	"math"
	"slices"

	"mobic/internal/geom"
)

// Adjacency is an undirected unit-disk graph over n nodes.
type Adjacency struct {
	n   int
	adj [][]int32
	// seen and queue are BFS scratch reused by ComponentStats, so the
	// simulator's periodic topology sample allocates nothing once warm.
	seen  []bool
	queue []int32
	// Rebuild's cell-bucketing scratch: each node's cell (-1 for a
	// non-finite position), the per-cell offsets into order, and the node
	// ids sorted by cell (ascending within a cell).
	cellOf []int32
	start  []int32
	order  []int32
}

// FromPositions builds the unit-disk graph: nodes i and j are adjacent iff
// their distance is <= radius.
func FromPositions(pos []geom.Point, radius float64) *Adjacency {
	g := &Adjacency{}
	g.Rebuild(pos, radius)
	return g
}

// cellMargin widens Rebuild's cells just past the radius, so float rounding
// in the cell arithmetic can never put two in-range points two cells apart.
const cellMargin = 1 + 1e-6

// Rebuild re-derives the unit-disk graph over pos in place, reusing the
// adjacency lists' backing arrays. Every adjacency list comes out in
// ascending id order. The periodic topology sampler calls this every few
// simulated seconds; rebuilding in place keeps it allocation-free at steady
// state.
//
// Points are bucketed into square cells at least radius wide, so each pair
// within range sits in the same or a neighboring cell and only the 3x3 block
// around each point is scanned. The cell count is capped near 2n, widening
// the cells when the radius is tiny against the point spread. An infinite
// radius or an unbounded spread falls back to testing every pair.
func (g *Adjacency) Rebuild(pos []geom.Point, radius float64) {
	n := len(pos)
	g.n = n
	if cap(g.adj) < n {
		adj := make([][]int32, n)
		copy(adj, g.adj)
		g.adj = adj
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	if !(radius >= 0) { // negative or NaN
		return
	}
	rSq := radius * radius
	if math.IsInf(radius, 1) {
		g.linkAllPairs(pos, rSq)
		return
	}

	// A non-finite coordinate is never within a finite radius of anything,
	// so only finite points are bucketed.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pos {
		if finite(p) {
			minX, maxX = min(minX, p.X), max(maxX, p.X)
			minY, maxY = min(minY, p.Y), max(maxY, p.Y)
		}
	}
	if minX > maxX {
		return
	}
	spanX, spanY := maxX-minX, maxY-minY
	fn := float64(n)
	cell := max(radius*cellMargin, spanX/fn, spanY/fn, math.Sqrt(spanX*spanY/fn))
	if !(cell > 0) || math.IsInf(cell, 1) {
		// Coincident points with radius 0, or a spread too large to divide.
		g.linkAllPairs(pos, rSq)
		return
	}
	cols, rows := int(spanX/cell)+1, int(spanY/cell)+1
	g.bucket(pos, minX, minY, cell, cols, rows)

	for i := 0; i < n; i++ {
		c := g.cellOf[i]
		if c < 0 {
			continue
		}
		col, row := int(c)%cols, int(c)/cols
		lower := len(g.adj[i]) // neighbors below i, appended by earlier rows
		for r := max(row-1, 0); r <= min(row+1, rows-1); r++ {
			for cc := max(col-1, 0); cc <= min(col+1, cols-1); cc++ {
				k := r*cols + cc
				for _, j := range g.order[g.start[k]:g.start[k+1]] {
					if j > int32(i) && pos[i].DistSq(pos[j]) <= rSq {
						g.adj[i] = append(g.adj[i], j)
						g.adj[j] = append(g.adj[j], int32(i))
					}
				}
			}
		}
		slices.Sort(g.adj[i][lower:])
	}
}

// bucket counting-sorts the finite points into cols x rows cells of the
// given size anchored at (minX, minY), filling cellOf, start and order. Ids
// land in ascending order within each cell.
func (g *Adjacency) bucket(pos []geom.Point, minX, minY, cell float64, cols, rows int) {
	n := len(pos)
	if cap(g.cellOf) < n {
		g.cellOf = make([]int32, n)
		g.order = make([]int32, n)
	}
	// Rebuild caps the grid at 2n+2 cells, so sizing for that once keeps
	// later rebuilds over as many points allocation-free.
	cells := cols * rows
	if cap(g.start) < cells+1 {
		g.start = make([]int32, max(cells, 2*n+2)+1)
	}
	g.cellOf = g.cellOf[:n]
	g.start = g.start[:cells+1]
	clear(g.start)
	for i, p := range pos {
		if !finite(p) {
			g.cellOf[i] = -1
			continue
		}
		col := min(int((p.X-minX)/cell), cols-1)
		row := min(int((p.Y-minY)/cell), rows-1)
		c := int32(row*cols + col)
		g.cellOf[i] = c
		g.start[c+1]++
	}
	for k := 1; k <= cells; k++ {
		g.start[k] += g.start[k-1]
	}
	g.order = g.order[:g.start[cells]]
	// start[k] doubles as cell k's fill cursor; shifting back afterwards
	// restores the offsets.
	for i, c := range g.cellOf {
		if c >= 0 {
			g.order[g.start[c]] = int32(i)
			g.start[c]++
		}
	}
	copy(g.start[1:], g.start[:cells])
	g.start[0] = 0
}

// linkAllPairs is Rebuild's exhaustive fallback: every pair is tested.
func (g *Adjacency) linkAllPairs(pos []geom.Point, rSq float64) {
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if pos[i].DistSq(pos[j]) <= rSq {
				g.adj[i] = append(g.adj[i], int32(j))
				g.adj[j] = append(g.adj[j], int32(i))
			}
		}
	}
}

// finite reports whether both coordinates of p are finite.
func finite(p geom.Point) bool {
	return !math.IsInf(p.X, 0) && !math.IsNaN(p.X) && !math.IsInf(p.Y, 0) && !math.IsNaN(p.Y)
}

// N returns the number of nodes.
func (g *Adjacency) N() int { return g.n }

// Neighbors returns node i's adjacency list. The returned slice must not be
// modified.
func (g *Adjacency) Neighbors(i int32) []int32 { return g.adj[i] }

// Degree returns the number of neighbors of node i.
func (g *Adjacency) Degree(i int32) int { return len(g.adj[i]) }

// Adjacent reports whether i and j are within range of each other.
func (g *Adjacency) Adjacent(i, j int32) bool {
	for _, k := range g.adj[i] {
		if k == j {
			return true
		}
	}
	return false
}

// BFSDist returns the hop distance from `from` to every node; unreachable
// nodes get -1.
func (g *Adjacency) BFSDist(from int32) ([]int, error) {
	if from < 0 || int(from) >= g.n {
		return nil, fmt.Errorf("graph: node %d out of range [0, %d)", from, g.n)
	}
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue := []int32{from}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist, nil
}

// Components returns the connected components, each a sorted-by-insertion
// list of node ids; components are ordered by their smallest node id.
func (g *Adjacency) Components() [][]int32 {
	seen := make([]bool, g.n)
	var comps [][]int32
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int32
		queue := []int32{int32(s)}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// ComponentStats returns the number of connected components and the size of
// the largest one without materializing the component lists. It reuses
// internal BFS scratch, so a caller sampling topology every few simulated
// seconds allocates nothing once the graph has been sized.
func (g *Adjacency) ComponentStats() (count, largest int) {
	if cap(g.seen) < g.n {
		g.seen = make([]bool, g.n)
	}
	g.seen = g.seen[:g.n]
	clear(g.seen)
	for s := 0; s < g.n; s++ {
		if g.seen[s] {
			continue
		}
		count++
		size := 0
		g.queue = append(g.queue[:0], int32(s))
		g.seen[s] = true
		for qi := 0; qi < len(g.queue); qi++ {
			u := g.queue[qi]
			size++
			for _, v := range g.adj[u] {
				if !g.seen[v] {
					g.seen[v] = true
					g.queue = append(g.queue, v)
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	return count, largest
}

// Connected reports whether the graph has exactly one component (true for
// the empty graph of one node; false for zero nodes).
func (g *Adjacency) Connected() bool {
	if g.n == 0 {
		return false
	}
	return len(g.Components()) == 1
}

// Diameter returns the longest shortest-path over the largest component,
// i.e. the "d" in the paper's O(d) convergence claim. Returns 0 for empty
// or singleton graphs.
func (g *Adjacency) Diameter() int {
	maxDist := 0
	for i := 0; i < g.n; i++ {
		dist, err := g.BFSDist(int32(i))
		if err != nil {
			continue
		}
		for _, d := range dist {
			if d > maxDist {
				maxDist = d
			}
		}
	}
	return maxDist
}

// SubgraphDiameter returns the diameter of the induced subgraph over the
// given nodes (hop counts within the subgraph). Used to check that every
// cluster has diameter <= 2. Unreachable pairs return -1 as the diameter.
func (g *Adjacency) SubgraphDiameter(nodes []int32) int {
	if len(nodes) <= 1 {
		return 0
	}
	inSet := make(map[int32]bool, len(nodes))
	for _, v := range nodes {
		inSet[v] = true
	}
	maxDist := 0
	for _, s := range nodes {
		// BFS constrained to the subset.
		dist := make(map[int32]int, len(nodes))
		dist[s] = 0
		queue := []int32{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if !inSet[v] {
					continue
				}
				if _, ok := dist[v]; !ok {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		if len(dist) < len(nodes) {
			return -1 // disconnected within the subgraph
		}
		for _, d := range dist {
			if d > maxDist {
				maxDist = d
			}
		}
	}
	return maxDist
}
