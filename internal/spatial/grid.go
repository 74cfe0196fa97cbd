// Package spatial provides a uniform-grid spatial index over node positions.
// The wireless channel uses it to find all receivers within a transmission
// range without scanning every node, which keeps broadcast delivery O(local
// density) instead of O(N) and lets the scalability benchmarks run scenarios
// far larger than the paper's 50 nodes.
package spatial

import (
	"fmt"
	"math"

	"mobic/internal/geom"
)

// noCell marks an id as absent from the index.
const noCell = int32(-1)

// Grid is a uniform bucket grid over a rectangular area. Cell size should be
// on the order of the query radius; QueryRange then touches at most the 3x3
// (or slightly larger) block of cells around the query point.
//
// Node ids are 0..n-1, fixed when the grid is built; positions and cell
// assignments live in dense slices indexed by id, so the per-candidate
// distance check in QueryRange is two array loads.
//
// Grid tolerates points outside its nominal area by clamping them to the
// boundary cells, so mobility models that momentarily overshoot an edge do
// not lose nodes.
type Grid struct {
	area     geom.Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int32 // cell -> node ids
	// pos[id] is the indexed position, cellOf[id] the cell index or noCell
	// when id has not been inserted yet.
	pos    []geom.Point
	cellOf []int32
}

// NewGrid builds an empty grid over area with the given cell size, for node
// ids 0..n-1. It returns an error for an invalid area, a non-positive cell
// size or a negative n.
func NewGrid(area geom.Rect, cellSize float64, n int) (*Grid, error) {
	if !area.Valid() {
		return nil, fmt.Errorf("spatial: invalid area %v", area)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) {
		return nil, fmt.Errorf("spatial: invalid cell size %g", cellSize)
	}
	if n < 0 {
		return nil, fmt.Errorf("spatial: invalid node count %d", n)
	}
	cols := int(math.Ceil(area.Width() / cellSize))
	rows := int(math.Ceil(area.Height() / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	cellOf := make([]int32, n)
	for i := range cellOf {
		cellOf[i] = noCell
	}
	return &Grid{
		area:     area,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int32, cols*rows),
		pos:      make([]geom.Point, n),
		cellOf:   cellOf,
	}, nil
}

// CellSize returns the configured cell size.
func (g *Grid) CellSize() float64 { return g.cellSize }

func (g *Grid) cellIndex(p geom.Point) int32 {
	c := g.area.Clamp(p)
	col := int((c.X - g.area.MinX) / g.cellSize)
	row := int((c.Y - g.area.MinY) / g.cellSize)
	if col >= g.cols {
		col = g.cols - 1
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return int32(row*g.cols + col)
}

// Update inserts node id at p, or moves it there if already present. id
// must be in [0, n) for the n the grid was built with.
func (g *Grid) Update(id int32, p geom.Point) {
	newCell := g.cellIndex(p)
	old := g.cellOf[id]
	g.pos[id] = p
	if old == newCell {
		return
	}
	if old != noCell {
		g.removeFromCell(id, old)
	}
	g.cells[newCell] = append(g.cells[newCell], id)
	g.cellOf[id] = newCell
}

func (g *Grid) removeFromCell(id int32, cell int32) {
	bucket := g.cells[cell]
	for i, v := range bucket {
		if v == id {
			bucket[i] = bucket[len(bucket)-1]
			g.cells[cell] = bucket[:len(bucket)-1]
			return
		}
	}
}

// QueryRange appends to dst the ids of all nodes within radius of center
// (boundary inclusive), excluding `exclude` (pass a negative id to exclude
// nothing), and returns the extended slice. A negative or NaN radius yields
// nothing; an infinite radius yields every node. Result order follows bucket
// insertion order, NOT ascending ids — callers needing a canonical order
// must sort.
func (g *Grid) QueryRange(center geom.Point, radius float64, exclude int32, dst []int32) []int32 {
	if radius < 0 || math.IsNaN(radius) {
		return dst
	}
	rSq := radius * radius
	minCol, maxCol := 0, g.cols-1
	minRow, maxRow := 0, g.rows-1
	if !math.IsInf(radius, 1) {
		// Conversion of an out-of-range float (e.g. ±Inf) to int is
		// implementation-defined, so the window arithmetic runs only for
		// finite radii; an infinite radius scans every cell.
		minCol = clampInt(int(math.Floor((center.X-radius-g.area.MinX)/g.cellSize)), 0, g.cols-1)
		maxCol = clampInt(int(math.Floor((center.X+radius-g.area.MinX)/g.cellSize)), 0, g.cols-1)
		minRow = clampInt(int(math.Floor((center.Y-radius-g.area.MinY)/g.cellSize)), 0, g.rows-1)
		maxRow = clampInt(int(math.Floor((center.Y+radius-g.area.MinY)/g.cellSize)), 0, g.rows-1)
	}
	pos := g.pos
	for row := minRow; row <= maxRow; row++ {
		base := row * g.cols
		for col := minCol; col <= maxCol; col++ {
			for _, id := range g.cells[base+col] {
				if id != exclude && pos[id].DistSq(center) <= rSq {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
