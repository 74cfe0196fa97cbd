// Package mobility generates node movement for the MANET simulator. It plays
// the role of the CMU `setdest` scenario generator the paper used: every
// model produces, per node, a piecewise-linear trajectory covering the whole
// simulation, which the channel then samples at packet times.
//
// Models provided:
//
//   - RandomWaypoint — the paper's workload (Table 1: MaxSpeed, Pause Time).
//   - RandomWalk and GaussMarkov — alternative entity models for robustness
//     studies.
//   - RPGM — Reference Point Group Mobility (paper Section 2.2), used by the
//     disaster-relief example.
//   - Highway and Conference — the paper's Section 5 target scenarios.
//   - Static — degenerate baseline for unit tests and convergence checks.
//
// All models draw every random number from named substreams of the scenario
// seed (internal/sim.Streams), so a scenario is a pure function of its seed.
package mobility

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mobic/internal/geom"
)

// Trajectory is a piecewise-linear path: the node moves at constant velocity
// between consecutive waypoints. Waypoint times are strictly increasing;
// repeating a position across two waypoints encodes a pause.
type Trajectory struct {
	times  []float64
	points []geom.Point
}

// errTrajectory diagnoses misuse of the Builder.
var (
	errEmptyTrajectory = errors.New("mobility: trajectory needs at least one waypoint")
	errTimeOrder       = errors.New("mobility: waypoint times must be non-decreasing")
)

// Builder incrementally constructs a Trajectory.
type Builder struct {
	times  []float64
	points []geom.Point
	err    error
}

// Append adds a waypoint at time t. Times must be non-decreasing; equal
// times are collapsed (last point wins) so models can emit zero-length legs
// without special-casing.
func (b *Builder) Append(t float64, p geom.Point) *Builder {
	if b.err != nil {
		return b
	}
	if n := len(b.times); n > 0 {
		last := b.times[n-1]
		if t < last {
			b.err = fmt.Errorf("%w: %g after %g", errTimeOrder, t, last)
			return b
		}
		if t == last {
			b.points[n-1] = p
			return b
		}
	}
	b.times = append(b.times, t)
	b.points = append(b.points, p)
	return b
}

// Build finalizes the trajectory. It returns an error if no waypoints were
// appended or if Append ever saw out-of-order times.
func (b *Builder) Build() (*Trajectory, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.times) == 0 {
		return nil, errEmptyTrajectory
	}
	return &Trajectory{times: b.times, points: b.points}, nil
}

// At returns the position at time t. Before the first waypoint the node sits
// at its initial position; after the last it stays at the final position.
func (tr *Trajectory) At(t float64) geom.Point {
	n := len(tr.times)
	if t <= tr.times[0] {
		return tr.points[0]
	}
	if t >= tr.times[n-1] {
		return tr.points[n-1]
	}
	// Index of the first waypoint with time > t.
	i := sort.SearchFloat64s(tr.times, t)
	if tr.times[i] == t {
		return tr.points[i]
	}
	t0, t1 := tr.times[i-1], tr.times[i]
	frac := (t - t0) / (t1 - t0)
	return geom.Lerp(tr.points[i-1], tr.points[i], frac)
}

// VelocityAt returns the instantaneous velocity at time t (zero outside the
// trajectory's span and during pauses). At an exact waypoint time it reports
// the velocity of the following leg.
func (tr *Trajectory) VelocityAt(t float64) geom.Vec {
	n := len(tr.times)
	if t < tr.times[0] || t >= tr.times[n-1] {
		return geom.Vec{}
	}
	i := sort.SearchFloat64s(tr.times, t)
	if i < n && tr.times[i] == t {
		i++ // velocity of the leg starting at this waypoint
	}
	if i <= 0 || i >= n {
		return geom.Vec{}
	}
	dt := tr.times[i] - tr.times[i-1]
	if dt <= 0 {
		return geom.Vec{}
	}
	return tr.points[i].Sub(tr.points[i-1]).Scale(1 / dt)
}

// Start returns the time of the first waypoint.
func (tr *Trajectory) Start() float64 { return tr.times[0] }

// End returns the time of the last waypoint.
func (tr *Trajectory) End() float64 { return tr.times[len(tr.times)-1] }

// Waypoints returns the number of waypoints.
func (tr *Trajectory) Waypoints() int { return len(tr.times) }

// MaxSpeed returns the highest leg speed in m/s. The simulator sizes its
// neighbor-query slack from it, and tests use it to verify models respect
// their speed caps. Legs are compared by squared speed, which skips a
// Hypot per leg.
func (tr *Trajectory) MaxSpeed() float64 {
	var maxV2 float64
	for i := 1; i < len(tr.times); i++ {
		dt := tr.times[i] - tr.times[i-1]
		if dt <= 0 {
			continue
		}
		if v2 := tr.points[i].DistSq(tr.points[i-1]) / (dt * dt); v2 > maxV2 {
			maxV2 = v2
		}
	}
	return math.Sqrt(maxV2)
}

// StaticTrajectory returns a trajectory pinned at p forever.
func StaticTrajectory(p geom.Point) *Trajectory {
	return &Trajectory{times: []float64{0}, points: []geom.Point{p}}
}
