// Package simnet wires the substrates into a runnable MANET simulation: it
// owns the hello protocol (periodic beacons, neighbor tables, timeouts),
// drives the clustering state machines, measures received powers through the
// propagation model, and collects the paper's evaluation metrics. It is the
// equivalent of the ns-2 scenario scripts plus the CMU hello/clustering
// agents used by the paper.
package simnet

import (
	"errors"
	"fmt"
	"math"

	"mobic/internal/channel"
	"mobic/internal/cluster"
	"mobic/internal/energy"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/obs"
	"mobic/internal/radio"
	"mobic/internal/trace"
)

// Defaults follow the paper's Table 1.
const (
	// DefaultBroadcastInterval is BI = 2.0 s.
	DefaultBroadcastInterval = 2.0
	// DefaultTimeoutPeriod is TP = 3.0 s.
	DefaultTimeoutPeriod = 3.0
	// DefaultSampleInterval is how often the cluster count is sampled.
	DefaultSampleInterval = 5.0
)

// AdaptiveBI configures the adaptive broadcast period policy (the paper's
// Section 5 sketch, concretized per Gavalas et al., arXiv:1109.3987): a
// node's target hello interval shrinks as its aggregate mobility grows:
//
//	target = Max - (Max-Min) * M/(M+MRef)
//
// so a stationary node beacons every Max seconds and a highly mobile one
// approaches Min. On top of the target, each node keeps a current interval
// with one-sided hysteresis: tightening (target below current) is applied
// immediately — a node that just started moving must beacon faster now —
// but relaxing is deferred until the target clears current by the relative
// Hysteresis band, so a node whose mobility flutters around a threshold
// does not thrash between periods. The whole policy is a pure function of
// per-node state, so runs stay bit-reproducible; with Min == Max every
// target collapses to the fixed interval and the schedule is identical to a
// non-adaptive run (the metamorphic fixed point the harness pins).
type AdaptiveBI struct {
	// Min is the shortest allowed interval in seconds.
	Min float64
	// Max is the longest allowed interval in seconds.
	Max float64
	// MRef is the mobility scale: at M = MRef the interval is halfway.
	MRef float64
	// Hysteresis is the relative band for relaxing the interval: the
	// current interval only grows once the target exceeds it by this
	// fraction (0.25 = 25%). 0 tracks the target exactly, reproducing the
	// band-free policy bit for bit. Must be >= 0.
	Hysteresis float64
}

// Interval returns the target beacon interval for aggregate mobility m.
func (a AdaptiveBI) Interval(m float64) float64 {
	if m < 0 {
		m = 0
	}
	frac := m / (m + a.MRef)
	return a.Max - (a.Max-a.Min)*frac
}

// Next advances the hysteresis state machine: cur is the node's current
// interval (0 on the first beacon and after a crash), m its fresh aggregate
// mobility. It returns the interval to schedule the next beacon at.
func (a AdaptiveBI) Next(cur, m float64) float64 {
	target := a.Interval(m)
	switch {
	case cur == 0:
		return target // first beacon: adopt the target outright
	case target < cur:
		return target // tighten immediately under rising mobility
	case target >= cur*(1+a.Hysteresis):
		return target // relax only once clear of the band
	default:
		return cur // inside the band: hold
	}
}

func (a AdaptiveBI) validate() error {
	for _, v := range [...]float64{a.Min, a.Max, a.MRef, a.Hysteresis} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("simnet: adaptive BI parameters must be finite, got %+v", a)
		}
	}
	if a.Min <= 0 || a.Max < a.Min {
		return fmt.Errorf("simnet: adaptive BI needs 0 < Min <= Max, got [%g, %g]", a.Min, a.Max)
	}
	if a.MRef <= 0 {
		return fmt.Errorf("simnet: adaptive BI needs MRef > 0, got %g", a.MRef)
	}
	if a.Hysteresis < 0 {
		return fmt.Errorf("simnet: adaptive BI needs Hysteresis >= 0, got %g", a.Hysteresis)
	}
	return nil
}

// NodeFailure is one scheduled crash (and optional recovery).
type NodeFailure struct {
	// Node is the node that fails.
	Node int32
	// At is the crash time in seconds.
	At float64
	// RecoverAt, when positive, revives the node at that time; zero means
	// the crash is permanent.
	RecoverAt float64
}

// Config fully describes one simulation run.
type Config struct {
	// N is the number of nodes (Table 1: 50).
	N int
	// Area is the simulation region, used for bookkeeping and the spatial
	// index. It should match the mobility model's region.
	Area geom.Rect
	// Duration is the simulated time in seconds (Table 1: S = 900).
	Duration float64
	// Seed roots every random stream of the run.
	Seed uint64
	// Algorithm selects the clustering algorithm.
	Algorithm cluster.Algorithm
	// Mobility generates node trajectories. Required.
	Mobility mobility.Model
	// Propagation maps distance to received power. Defaults to ns-2's
	// two-ray ground model.
	Propagation radio.Model
	// TxPower is the transmit power in Watts. Defaults to the WaveLAN
	// 281.8 mW.
	TxPower float64
	// TxRange is the nominal transmission range in meters (Table 1:
	// 10-250). The receive threshold is calibrated so a deterministic
	// propagation model delivers exactly out to this range.
	TxRange float64
	// BroadcastInterval is the hello period BI in seconds.
	BroadcastInterval float64
	// TimeoutPeriod is the neighbor-table timeout TP in seconds.
	TimeoutPeriod float64
	// Warmup excludes early events from the metrics (0 counts everything).
	Warmup float64
	// TimelineWindow, when positive, buckets clusterhead changes into
	// windows of this many seconds (see Network.Timeline).
	TimelineWindow float64
	// SampleInterval is the cluster-count sampling period in seconds.
	SampleInterval float64
	// Loss optionally injects MAC-level packet loss. Defaults to NoLoss.
	Loss channel.LossModel
	// Trace optionally records simulator events.
	Trace *trace.Log
	// Observer, when set, receives every simulator event synchronously as
	// it is recorded. Unlike Trace it is unbounded — nothing is ever
	// dropped — which is what the correctness harness needs to fold the
	// full event stream into a trace digest (see internal/harness). The
	// callback runs on the simulation goroutine and must not retain the
	// event beyond the call.
	Observer func(trace.Event)
	// Obs receives engine telemetry (beacons, receptions, collisions,
	// neighbor churn, clusterhead changes, kernel event counts, sim-rate).
	// Defaults to obs.Nop, which is allocation-free and keeps the hot path
	// at its zero-alloc steady state; mobicd installs an obs.Registry to
	// merge these families into /metrics. Telemetry is strictly
	// write-only — nothing recorded feeds back into the simulation — so
	// trace digests are identical with or without a recorder.
	Obs obs.Recorder
	// CustomWeights supplies per-node static weights for the DCA
	// algorithm (KindCustom). When nil, distinct uniform weights are
	// drawn from the seed.
	CustomWeights []float64
	// Adaptive enables the adaptive hello interval extension (A4).
	Adaptive *AdaptiveBI
	// Energy enables the per-node battery model: TX/RX costs per hello
	// byte and an idle drain are charged at the radio layer, the remaining
	// battery fraction penalizes the node's election weight (with extra
	// rotation pressure on low-battery heads), and a node whose battery
	// reaches zero is crashed through the same churn path as a scheduled
	// failure — permanently, since batteries do not recharge. Nil disables
	// the model entirely and is bit-identical to the pre-energy engine.
	Energy *energy.Config
	// Apps are protocols running on top of the clustered network (e.g.
	// the CBRP-lite routing protocol). Started when the network is built.
	Apps []App
	// HopDelay is the per-hop forwarding latency for app-layer packets in
	// seconds (default 1 ms). Hello beacons are unaffected.
	HopDelay float64
	// HelloCollisions enables a simple MAC collision model for hello
	// beacons: a beacon occupies the air for HelloAirtime seconds, and two
	// receptions overlapping at a receiver destroy each other (no capture).
	// Beacons are additionally jittered per transmission (±10% of BI) so
	// fixed-phase schedules cannot collide persistently — exactly what a
	// real hello protocol does. The paper's evaluation counts only
	// successfully received packets, so this models the loss it abstracts.
	HelloCollisions bool
	// HelloAirtime is the on-air duration of one beacon in seconds
	// (default 0.8 ms ~ a 100-byte hello at 1 Mb/s).
	HelloAirtime float64
	// CombinedDegreeWeight, when positive and the algorithm uses the
	// mobility weight, adds CombinedDegreeWeight*|degree - IdealDegree| to
	// the election value — the WCA-lite combined weight (clusterheads
	// should be slow AND neither isolated nor overloaded).
	CombinedDegreeWeight float64
	// IdealDegree is WCA-lite's target neighbor count (default 8).
	IdealDegree int
	// Failures schedules node crashes (and optional recoveries): a downed
	// node stops beaconing, receives nothing, and loses all protocol
	// state; on recovery it rejoins as a fresh undecided node. Used by
	// failure-injection tests and the "failures" experiment.
	Failures []NodeFailure
	// ForceBruteForce bypasses the spatial-index candidate query and
	// scans every node on each broadcast. Stochastic propagation models
	// (shadowing) force this on automatically; tests use it to verify the
	// index takes no shortcuts.
	ForceBruteForce bool
	// Tiles does nothing: the field is ignored and every run uses the
	// sequential scheduler. It once selected a tiled-parallel planner whose
	// results were bit-identical to the sequential run but which was not
	// measurably faster (DESIGN.md §10), and it is kept only so existing
	// callers still compile.
	Tiles int
}

// Validation errors.
var (
	ErrNoMobility = errors.New("simnet: mobility model is required")
	ErrBadConfig  = errors.New("simnet: invalid config")
)

// withDefaults returns a copy of cfg with defaults applied.
func (cfg Config) withDefaults() Config {
	if cfg.Propagation == nil {
		cfg.Propagation = radio.NewTwoRayGround()
	}
	if cfg.TxPower == 0 {
		cfg.TxPower = radio.DefaultTxPower
	}
	if cfg.BroadcastInterval == 0 {
		cfg.BroadcastInterval = DefaultBroadcastInterval
	}
	if cfg.TimeoutPeriod == 0 {
		cfg.TimeoutPeriod = DefaultTimeoutPeriod
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = DefaultSampleInterval
	}
	if cfg.Loss == nil {
		cfg.Loss = channel.NoLoss{}
	}
	if cfg.Algorithm.Name == "" {
		cfg.Algorithm = cluster.MOBIC
	}
	if cfg.HopDelay == 0 {
		cfg.HopDelay = 0.001
	}
	if cfg.HelloAirtime == 0 {
		cfg.HelloAirtime = 0.0008
	}
	if cfg.IdealDegree == 0 {
		cfg.IdealDegree = 8
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.Nop{}
	}
	return cfg
}

// validate checks a defaults-applied config.
func (cfg Config) validate() error {
	switch {
	case cfg.N <= 0:
		return fmt.Errorf("%w: N = %d", ErrBadConfig, cfg.N)
	case cfg.Duration <= 0:
		return fmt.Errorf("%w: duration = %g", ErrBadConfig, cfg.Duration)
	case cfg.Mobility == nil:
		return ErrNoMobility
	case cfg.TxRange <= 0:
		return fmt.Errorf("%w: tx range = %g", ErrBadConfig, cfg.TxRange)
	case cfg.TxPower <= 0:
		return fmt.Errorf("%w: tx power = %g", ErrBadConfig, cfg.TxPower)
	case cfg.BroadcastInterval <= 0:
		return fmt.Errorf("%w: broadcast interval = %g", ErrBadConfig, cfg.BroadcastInterval)
	case cfg.TimeoutPeriod < cfg.BroadcastInterval:
		return fmt.Errorf("%w: timeout period %g < broadcast interval %g (neighbors would expire between beacons)",
			ErrBadConfig, cfg.TimeoutPeriod, cfg.BroadcastInterval)
	case cfg.HopDelay < 0:
		return fmt.Errorf("%w: hop delay = %g", ErrBadConfig, cfg.HopDelay)
	case cfg.HelloAirtime <= 0 || cfg.HelloAirtime >= cfg.BroadcastInterval/2:
		return fmt.Errorf("%w: hello airtime = %g", ErrBadConfig, cfg.HelloAirtime)
	case cfg.SampleInterval <= 0:
		return fmt.Errorf("%w: sample interval = %g", ErrBadConfig, cfg.SampleInterval)
	case cfg.Warmup < 0 || cfg.Warmup >= cfg.Duration:
		return fmt.Errorf("%w: warmup %g outside [0, duration)", ErrBadConfig, cfg.Warmup)
	case !cfg.Area.Valid():
		return fmt.Errorf("%w: invalid area %v", ErrBadConfig, cfg.Area)
	}
	if cfg.CustomWeights != nil && len(cfg.CustomWeights) != cfg.N {
		return fmt.Errorf("%w: %d custom weights for %d nodes", ErrBadConfig, len(cfg.CustomWeights), cfg.N)
	}
	for _, f := range cfg.Failures {
		if f.Node < 0 || int(f.Node) >= cfg.N {
			return fmt.Errorf("%w: failure for node %d of %d", ErrBadConfig, f.Node, cfg.N)
		}
		if f.At < 0 || f.At >= cfg.Duration {
			return fmt.Errorf("%w: failure at t=%g outside run", ErrBadConfig, f.At)
		}
		if f.RecoverAt != 0 && f.RecoverAt <= f.At {
			return fmt.Errorf("%w: recovery at %g not after failure at %g", ErrBadConfig, f.RecoverAt, f.At)
		}
	}
	if cfg.Adaptive != nil {
		if err := cfg.Adaptive.validate(); err != nil {
			return err
		}
	}
	if cfg.Energy != nil {
		if err := cfg.Energy.Validate(); err != nil {
			return err
		}
	}
	return nil
}
