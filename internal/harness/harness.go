// Package harness is the simulator's correctness and regression subsystem.
// The paper's claims (Figures 3-6, Table 1) rest entirely on a stochastic
// simulator, so every result is only as trustworthy as the simulator's
// reproducibility. This package makes that reproducibility checkable:
//
//   - Digester folds the full event stream of a run (clusterhead elections,
//     membership changes, hello deliveries) into a canonical trace digest,
//     fed by the recording hook simnet.Config.Observer;
//   - golden digests per (scenario, algorithm, seed) are checked in under
//     testdata/ and verified on every test run, so any behavioural change
//     to the hot path is caught, intended or not;
//   - determinism tests prove the digest is invariant across repeated runs,
//     across experiment.Runner worker counts, and across spatial-grid vs
//     brute-force neighbour queries (a differential oracle for
//     internal/spatial);
//   - metamorphic tests check relations no correct simulator can violate
//     (node relabeling, duration extension, warmup accounting).
//
// Together with the work ledger (TestWorkLedger: exact engine work counts
// and allocations per pinned run) this is the safety net that makes
// aggressive performance work on simnet and spatial safe: a refactor that
// preserves digests and the ledger is behaviour-preserving by construction
// and does no more work than before.
package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// Digester folds a simulator event stream into a canonical digest. Feed it
// via simnet.Config.Observer and read the digest with Sum after the run.
//
// Only semantically meaningful events are hashed: clusterhead elections and
// resignations (KindRoleChange), membership changes (KindHeadChange), and
// hello deliveries (KindDeliver), plus the app-layer deliveries DigestRun
// taps from the run's apps. Broadcasts, drops and timeouts are
// excluded — they are implied by the deliveries and would make the digest
// needlessly sensitive to bookkeeping-only changes.
//
// Events sharing one timestamp are sorted before hashing. Within a single
// scheduler event (one node's hello broadcast) the simulator may deliver to
// receivers in any order — the spatial grid yields candidates in bucket
// order, a brute-force scan in ID order — and that order is immaterial to
// the simulation's semantics, because deliveries at one instant touch
// disjoint receiver state. Canonicalizing it makes the digest a property of
// the run's behaviour, not of the index implementation, which is exactly
// what lets the grid-vs-brute-force differential test demand byte-equal
// digests.
//
// Digester is not safe for concurrent use; a simulation run is
// single-threaded, so one digester per Network is the natural shape.
type Digester struct {
	h     hash.Hash
	t     float64
	group []trace.Event
	count uint64
}

// NewDigester returns an empty digester.
func NewDigester() *Digester {
	return &Digester{h: sha256.New(), t: math.Inf(-1)}
}

// Kinds of app-layer deliveries, which DigestRun folds in beside the
// engine's events. They sit above every trace.Kind so that they never
// collide with one.
const (
	kindAppBroadcast trace.Kind = 0x80 + iota
	kindAppUnicast
)

// relevant reports whether ev contributes to the digest.
func relevant(k trace.Kind) bool {
	switch k {
	case trace.KindDeliver, trace.KindRoleChange, trace.KindHeadChange,
		kindAppBroadcast, kindAppUnicast:
		return true
	default:
		return false
	}
}

// Observe feeds one simulator event. Events must arrive in non-decreasing
// timestamp order, which the scheduler guarantees.
func (d *Digester) Observe(ev trace.Event) {
	if !relevant(ev.Kind) {
		return
	}
	if ev.T != d.t {
		d.flush()
		d.t = ev.T
	}
	d.group = append(d.group, ev)
	d.count++
}

// flush canonicalizes and hashes the pending same-timestamp group.
func (d *Digester) flush() {
	if len(d.group) == 0 {
		return
	}
	g := d.group
	sort.Slice(g, func(i, j int) bool {
		if g[i].Kind != g[j].Kind {
			return g[i].Kind < g[j].Kind
		}
		if g[i].Node != g[j].Node {
			return g[i].Node < g[j].Node
		}
		if g[i].Other != g[j].Other {
			return g[i].Other < g[j].Other
		}
		return math.Float64bits(g[i].Value) < math.Float64bits(g[j].Value)
	})
	var buf [25]byte
	for _, ev := range g {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(ev.T))
		buf[8] = byte(ev.Kind)
		binary.LittleEndian.PutUint32(buf[9:], uint32(ev.Node))
		binary.LittleEndian.PutUint32(buf[13:], uint32(ev.Other))
		binary.LittleEndian.PutUint64(buf[17:], math.Float64bits(ev.Value))
		d.h.Write(buf[:])
	}
	d.group = d.group[:0]
}

// Count returns the number of events folded in so far.
func (d *Digester) Count() uint64 { return d.count }

// Sum flushes any pending group and returns the hex digest. Call it once,
// after the run completed; further Observe calls after Sum are undefined.
func (d *Digester) Sum() string {
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil))
}

// Digest is one run's canonical trace digest plus the event count that
// produced it. The count makes golden-file diffs legible: a digest mismatch
// with equal counts means changed values, a different count means changed
// structure.
type Digest struct {
	// SHA256 is the hex canonical trace digest.
	SHA256 string `json:"sha256"`
	// Events is the number of digest-relevant events folded in.
	Events uint64 `json:"events"`
}

// DigestRun builds and runs cfg with a fresh digester attached and returns
// the run's canonical digest alongside its result. Any observer already in
// cfg is chained after the digester, so callers can still tap the stream.
//
// Every app in cfg is wrapped so that each app-layer delivery (an
// OnBroadcast or OnUnicast call) is folded in too, as an event of the
// digest's own kinds: the engine's event stream does not carry them.
func DigestRun(cfg simnet.Config) (Digest, *simnet.Result, error) {
	d := NewDigester()
	prev := cfg.Observer
	cfg.Observer = func(ev trace.Event) {
		d.Observe(ev)
		if prev != nil {
			prev(ev)
		}
	}
	if len(cfg.Apps) > 0 {
		apps := make([]simnet.App, len(cfg.Apps))
		for i, app := range cfg.Apps {
			apps[i] = appTap{App: app, d: d}
		}
		cfg.Apps = apps
	}
	net, err := simnet.New(cfg)
	if err != nil {
		return Digest{}, nil, err
	}
	res, err := net.Run()
	if err != nil {
		return Digest{}, nil, err
	}
	return Digest{SHA256: d.Sum(), Events: d.Count()}, res, nil
}

// appTap forwards every call to the wrapped app and folds each delivery
// into a digester: sender, receiver and time, not the payload.
type appTap struct {
	simnet.App
	d *Digester
}

func (a appTap) OnBroadcast(now float64, from, at int32, payload simnet.Payload) {
	a.d.Observe(trace.Event{T: now, Kind: kindAppBroadcast, Node: from, Other: at})
	a.App.OnBroadcast(now, from, at, payload)
}

func (a appTap) OnUnicast(now float64, from, at int32, payload simnet.Payload) {
	a.d.Observe(trace.Event{T: now, Kind: kindAppUnicast, Node: from, Other: at})
	a.App.OnUnicast(now, from, at, payload)
}
