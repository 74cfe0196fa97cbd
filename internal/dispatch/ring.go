// Package dispatch is the coordinator half of distributed mobicd: it
// places jobs across a set of worker daemons with a consistent-hash ring
// keyed by the job spec's content digest, proxies the /v1/jobs API
// transparently, health-checks workers off /readyz, and on a worker
// failure re-dispatches that worker's interrupted jobs to the ring
// successor, which holds the checkpoint replica the old owner streamed to
// it, so the sweep resumes at its first incomplete cell instead of
// starting over.
//
// Digest-keyed placement is what makes the coordinator's result cache and
// the workers' own caches compose: identical sweeps always land on the
// same worker (cache locality), and the determinism argument (see
// DESIGN.md S28) makes any cached copy interchangeable with a fresh run.
package dispatch

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over worker base URLs. Each peer owns
// VNodes points on the ring, which evens out placement for small clusters
// (a handful of physical nodes is exactly where raw hashing is lumpiest).
// The ring itself is immutable after construction and safe for concurrent
// readers; liveness is layered on top via the down predicate of Owner.
type Ring struct {
	points []point
	peers  []string
}

// point is one virtual node: a position on the ring and the peer that owns it.
type point struct {
	hash uint64
	peer string
}

// ringHash positions a label on the ring: the first 8 bytes of its SHA-256,
// matching the key space of the spec digests placed on it.
func ringHash(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring with vnodes virtual nodes per peer (minimum 1).
// Duplicate peers are collapsed.
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{}
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s#%d", p, i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// Peers returns the distinct peers on the ring, in insertion order.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the first peer at or after key's ring position for which
// down returns false — the placement target, or the failover successor
// when the natural owner is excluded. A nil down accepts every peer.
// Returns "" when the ring is empty or every peer is down.
func (r *Ring) Owner(key string, down func(peer string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if down == nil {
		// Fast path for plain placement: the first point wins, no
		// visited-set allocation.
		return r.points[start%len(r.points)].peer
	}
	tried := make(map[string]bool, len(r.peers))
	for i := 0; i < len(r.points) && len(tried) < len(r.peers); i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if tried[p] {
			continue
		}
		tried[p] = true
		if down == nil || !down(p) {
			return p
		}
	}
	return ""
}

// Owners returns every distinct peer in ring order starting at key's
// position: the owner first, then each successive failover candidate.
func (r *Ring) Owners(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.peers))
	seen := make(map[string]bool, len(r.peers))
	for i := 0; i < len(r.points) && len(out) < len(r.peers); i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
