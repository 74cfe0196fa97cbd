package simnet

import (
	"mobic/internal/cluster"
	"mobic/internal/geom"
	"mobic/internal/graph"
)

// NodeState is a read-only view of one node's clustering state at the
// current simulated time, used by tests, examples and the routing layer.
type NodeState struct {
	// ID is the node identifier.
	ID int32
	// Pos is the node's position now.
	Pos geom.Point
	// Role is the clustering role.
	Role cluster.Role
	// Head is the node's clusterhead (its own ID when it is a head).
	Head int32
	// M is the aggregate local mobility computed at the last beacon.
	M float64
	// Gateway reports whether the node currently hears >= 2 heads.
	Gateway bool
	// Neighbors is the number of live neighbor-table entries.
	Neighbors int
	// Down reports whether the node is currently crashed.
	Down bool
}

// Now returns the current simulated time.
func (n *Network) Now() float64 { return n.sched.Now() }

// Snapshot returns the state of every node at the current simulated time.
func (n *Network) Snapshot() []NodeState {
	out := make([]NodeState, 0, len(n.nodes))
	for _, rn := range n.nodes {
		out = append(out, NodeState{
			ID:        rn.id,
			Pos:       rn.pos.At(n.sched.Now()),
			Role:      rn.cnode.Role(),
			Head:      rn.cnode.Head(),
			M:         n.lastM[rn.id],
			Gateway:   rn.cnode.Role() == cluster.RoleMember && rn.nbrs.headCount() >= 2,
			Neighbors: len(rn.nbrs.ids),
			Down:      n.down[rn.id],
		})
	}
	return out
}

// Positions returns every node's position at the current simulated time.
func (n *Network) Positions() []geom.Point {
	out := make([]geom.Point, 0, len(n.nodes))
	for _, rn := range n.nodes {
		out = append(out, rn.pos.At(n.sched.Now()))
	}
	return out
}

// Topology returns the unit-disk adjacency over the current positions with
// the configured transmission range.
func (n *Network) Topology() *graph.Adjacency {
	return graph.FromPositions(n.Positions(), n.cfg.TxRange)
}

// Clusters groups node IDs by clusterhead. Undecided nodes appear under
// cluster.NoHead.
func (n *Network) Clusters() map[int32][]int32 {
	out := make(map[int32][]int32)
	for _, rn := range n.nodes {
		h := rn.cnode.Head()
		out[h] = append(out[h], rn.id)
	}
	return out
}

// RunUntil advances the simulation to the given time (clamped to the
// configured duration), letting callers interleave inspection with
// execution. Metrics are not finalized; call Run or FinishRun for that.
func (n *Network) RunUntil(t float64) {
	if t > n.cfg.Duration {
		t = n.cfg.Duration
	}
	n.sched.RunUntil(t)
}

// Config returns the (defaults-applied) configuration of the network.
func (n *Network) Config() Config { return n.cfg }

// BatteryFraction returns node id's remaining battery as a fraction of its
// initial charge, or 1 when the energy model is disabled. Tests and the
// hierarchical-clustering layer use it to reason about energy-aware head
// placement without reaching into the drain accounting.
func (n *Network) BatteryFraction(id int32) float64 {
	if n.batteryJ == nil {
		return 1
	}
	return n.cfg.Energy.Fraction(n.batteryJ[id])
}

// EnergyDepleted returns the number of nodes that have died of battery
// exhaustion so far.
func (n *Network) EnergyDepleted() int { return n.depleted }

// CurrentInterval returns node id's current adaptive beacon interval, or the
// fixed broadcast interval when the adaptive policy is disabled. A node that
// has not beaconed yet reports the fixed interval too (the adaptive state
// initializes on the first beacon).
func (n *Network) CurrentInterval(id int32) float64 {
	if n.curBI == nil || n.curBI[id] == 0 {
		return n.cfg.BroadcastInterval
	}
	return n.curBI[id]
}
