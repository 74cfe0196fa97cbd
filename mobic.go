package mobic

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"

	"mobic/internal/channel"
	"mobic/internal/cluster"
	"mobic/internal/core"
	"mobic/internal/energy"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/radio"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// MobilitySpec selects and parameterizes a mobility model.
//
// Models: "waypoint" (default; the paper's random waypoint), "static",
// "walk", "gauss-markov", "rpgm" (group mobility), "manhattan" (urban
// street grid), "highway" and "conference" (the paper's Section 5
// scenarios).
type MobilitySpec struct {
	// Model names the mobility model (see type doc). Empty = "waypoint".
	Model string
	// MinSpeed and MaxSpeed bound node speeds in m/s (model dependent).
	MinSpeed, MaxSpeed float64
	// Pause is the waypoint pause time PT in seconds.
	Pause float64
	// Groups and GroupRadius configure "rpgm".
	Groups      int
	GroupRadius float64
	// LocalJitter is rpgm's intra-group wobble radius in meters.
	LocalJitter float64
	// Lanes, LaneWidth, SpeedJitter and Bidirectional configure "highway"
	// (the scenario width is the highway length).
	Lanes         int
	LaneWidth     float64
	SpeedJitter   float64
	Bidirectional bool
	// WandererFraction configures "conference": the share of attendees
	// that stroll around; the rest sit nearly still.
	WandererFraction float64
	// Blocks and TurnProb configure "manhattan" (city blocks per axis and
	// the per-intersection turn probability).
	Blocks   int
	TurnProb float64
	// SteadyState pre-rolls "waypoint" walks so t=0 already samples the
	// model's stationary distribution (avoids the RWP speed-decay bias).
	SteadyState bool
}

// Scenario describes one simulation in plain values, mirroring the paper's
// Table 1. Zero values take the paper's defaults where one exists.
type Scenario struct {
	// Nodes is the number of nodes (default 50).
	Nodes int
	// Width and Height are the area dimensions in meters (default 670x670).
	Width, Height float64
	// Duration is the simulated time in seconds (default 900).
	Duration float64
	// Seed roots all randomness (default 1).
	Seed uint64
	// Algorithm is a name accepted by Algorithms() (default "mobic").
	Algorithm string
	// TxRange is the transmission range in meters. Required.
	TxRange float64
	// Mobility selects the movement model (default: waypoint, MaxSpeed 20).
	Mobility MobilitySpec
	// BroadcastInterval is BI in seconds (default 2).
	BroadcastInterval float64
	// BIMin and BIMax, when both set, let every node float its own hello
	// interval in [BIMin, BIMax] with its aggregate mobility (high mobility
	// tightens toward BIMin) behind a relaxation hysteresis band; they
	// override BroadcastInterval. BIMin == BIMax pins that fixed interval.
	// Both zero (the default) keeps the fixed interval.
	BIMin, BIMax float64
	// EnergyJ, when > 0, gives every node a battery with this initial
	// budget in joules: transmitting, receiving and idling drain it,
	// draining batteries worsen election weights, heads below the rotation
	// threshold hand the role off, and depleted nodes die. 0 disables the
	// energy model.
	EnergyJ float64
	// TimeoutPeriod is TP in seconds (default 3).
	TimeoutPeriod float64
	// ContentionInterval is CCI in seconds (default 4; only used by
	// MOBIC-family algorithms).
	ContentionInterval float64
	// Warmup excludes early events from the metrics (default 0).
	Warmup float64
	// Propagation is "tworay" (default), "freespace" or "shadowing".
	Propagation string
	// LossRate drops hello packets uniformly at random in [0, 1).
	LossRate float64
	// MovementFile, when set, loads node movement from a CMU/ns-2
	// `setdest` scenario file; it overrides Mobility, and Nodes must be 0
	// or match the file's node count.
	MovementFile string
	// TraceFile, when set, writes a structured event trace (broadcasts,
	// deliveries, role and head changes, timeouts) to this path after the
	// run — the analog of an ns-2 trace file.
	TraceFile string
	// TraceCapacity bounds the number of retained trace events (default
	// 200000; the oldest events are dropped beyond that).
	TraceCapacity int
}

// Result summarizes one run.
type Result struct {
	// Algorithm is the algorithm that ran.
	Algorithm string
	// ClusterheadChanges is the paper's cluster-stability metric CS:
	// every transition of any node into or out of clusterhead status.
	ClusterheadChanges int
	// ClusterheadAcquisitions counts only transitions into head status.
	ClusterheadAcquisitions int
	// MembershipChanges counts members switching clusterheads.
	MembershipChanges int
	// AvgClusters is the time-averaged number of clusters (Figure 4).
	AvgClusters float64
	// AvgGateways is the time-averaged number of gateway nodes.
	AvgGateways float64
	// AvgClusterSize is the time-averaged mean cluster size.
	AvgClusterSize float64
	// MeanResidenceSeconds is the mean clusterhead tenure.
	MeanResidenceSeconds float64
	// HeadTimeFairness is Jain's fairness index over per-node head duty
	// time (1 = perfectly shared, 1/Nodes = one node carried everything).
	HeadTimeFairness float64
	// Broadcasts, Deliveries and Drops count hello messages.
	Broadcasts, Deliveries, Drops uint64
	// FinalClusterheads is the number of heads when the run ended.
	FinalClusterheads int
}

// NodeInfo is the final state of one node, for visualization.
type NodeInfo struct {
	// ID is the node identifier.
	ID int
	// X, Y is the final position in meters.
	X, Y float64
	// Role is "undecided", "head" or "member".
	Role string
	// Head is the clusterhead's ID (own ID for heads, -1 if none).
	Head int
	// M is the node's last aggregate local mobility value.
	M float64
	// Gateway reports whether the node hears two or more heads.
	Gateway bool
}

// PaperScenario returns the paper's Figure 3/4 workload (670x670 m, 50
// nodes, MaxSpeed 20 m/s, PT 0) at the given transmission range.
func PaperScenario(txRange float64) Scenario {
	return Scenario{TxRange: txRange}
}

// SparseScenario returns the Figure 5 workload (1000x1000 m).
func SparseScenario(txRange float64) Scenario {
	return Scenario{TxRange: txRange, Width: 1000, Height: 1000}
}

// MobilityScenario returns the Figure 6 workload (Tx 250 m) at the given
// speed cap and pause time.
func MobilityScenario(maxSpeed, pause float64) Scenario {
	return Scenario{
		TxRange:  250,
		Mobility: MobilitySpec{MaxSpeed: maxSpeed, Pause: pause},
	}
}

// Algorithms lists the accepted Scenario.Algorithm names.
func Algorithms() []string { return cluster.Names() }

// ErrBadScenario wraps scenario translation failures.
var ErrBadScenario = errors.New("mobic: invalid scenario")

// Run executes the scenario and returns its metrics.
func Run(s Scenario) (*Result, error) {
	res, _, err := run(s, false)
	return res, err
}

// Inspect executes the scenario and additionally returns every node's final
// state, for visualizing the resulting cluster structure.
func Inspect(s Scenario) (*Result, []NodeInfo, error) {
	return run(s, true)
}

// Compare runs the same scenario (same seed, same node movement) under each
// named algorithm and returns the results keyed by name.
func Compare(s Scenario, algorithms ...string) (map[string]*Result, error) {
	if len(algorithms) == 0 {
		algorithms = []string{"lcc", "mobic"}
	}
	out := make(map[string]*Result, len(algorithms))
	for _, name := range algorithms {
		s := s
		s.Algorithm = name
		res, err := Run(s)
		if err != nil {
			return nil, fmt.Errorf("mobic: algorithm %q: %w", name, err)
		}
		out[name] = res
	}
	return out, nil
}

func run(s Scenario, wantNodes bool) (*Result, []NodeInfo, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, nil, err
	}
	var tlog *trace.Log
	if s.TraceFile != "" {
		capacity := s.TraceCapacity
		if capacity <= 0 {
			capacity = 200000
		}
		tlog = trace.New(capacity)
		cfg.Observer = tlog.Record
	}
	net, err := simnet.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	raw, err := net.Run()
	if err != nil {
		return nil, nil, err
	}
	if tlog != nil {
		if err := os.WriteFile(s.TraceFile, []byte(tlog.Dump()), 0o644); err != nil {
			return nil, nil, fmt.Errorf("mobic: writing trace: %w", err)
		}
	}
	res := &Result{
		Algorithm:               raw.Algorithm,
		ClusterheadChanges:      raw.Metrics.CHChanges,
		ClusterheadAcquisitions: raw.Metrics.CHAcquisitions,
		MembershipChanges:       raw.Metrics.MembershipChanges,
		AvgClusters:             raw.Metrics.AvgClusters,
		AvgGateways:             raw.Metrics.AvgGateways,
		AvgClusterSize:          raw.Metrics.AvgClusterSize,
		MeanResidenceSeconds:    raw.Metrics.MeanResidence,
		HeadTimeFairness:        raw.Metrics.HeadTimeFairness,
		Broadcasts:              raw.Metrics.Broadcasts,
		Deliveries:              raw.Metrics.Deliveries,
		Drops:                   raw.Metrics.Drops,
		FinalClusterheads:       raw.FinalHeads,
	}
	var nodes []NodeInfo
	if wantNodes {
		for _, st := range net.Snapshot() {
			nodes = append(nodes, NodeInfo{
				ID:      int(st.ID),
				X:       st.Pos.X,
				Y:       st.Pos.Y,
				Role:    st.Role.String(),
				Head:    int(st.Head),
				M:       st.M,
				Gateway: st.Gateway,
			})
		}
	}
	return res, nodes, nil
}

// config translates the public Scenario into the internal configuration.
func (s Scenario) config() (simnet.Config, error) {
	if s.Nodes == 0 {
		s.Nodes = 50
	}
	if s.Width == 0 {
		s.Width = 670
	}
	if s.Height == 0 {
		s.Height = s.Width
	}
	if s.Duration == 0 {
		s.Duration = 900
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TxRange <= 0 {
		return simnet.Config{}, fmt.Errorf("%w: TxRange is required and positive", ErrBadScenario)
	}
	if s.LossRate < 0 || s.LossRate >= 1 {
		return simnet.Config{}, fmt.Errorf("%w: loss rate %g outside [0, 1)", ErrBadScenario, s.LossRate)
	}
	if s.BIMin < 0 || s.BIMax < 0 {
		return simnet.Config{}, fmt.Errorf("%w: adaptive BI bounds [%g, %g] must be >= 0", ErrBadScenario, s.BIMin, s.BIMax)
	}
	if (s.BIMin > 0) != (s.BIMax > 0) {
		return simnet.Config{}, fmt.Errorf("%w: adaptive BI needs both bounds, got [%g, %g]", ErrBadScenario, s.BIMin, s.BIMax)
	}
	if s.BIMin > s.BIMax {
		return simnet.Config{}, fmt.Errorf("%w: adaptive BI bounds inverted [%g, %g]", ErrBadScenario, s.BIMin, s.BIMax)
	}
	if s.EnergyJ < 0 {
		return simnet.Config{}, fmt.Errorf("%w: energy budget %g J is negative", ErrBadScenario, s.EnergyJ)
	}

	alg, err := cluster.ByName(s.Algorithm)
	if err != nil {
		return simnet.Config{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	if s.ContentionInterval > 0 && alg.Policy.CCI > 0 {
		alg.Policy.CCI = s.ContentionInterval
	}

	area := geom.NewRect(s.Width, s.Height)
	var (
		model     mobility.Model
		modelArea geom.Rect
	)
	if s.MovementFile != "" {
		f, err := os.Open(s.MovementFile)
		if err != nil {
			return simnet.Config{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
		}
		trs, err := mobility.ParseNS2(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return simnet.Config{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
		}
		if s.Nodes != 50 && s.Nodes != len(trs) {
			// 50 is the Table 1 default applied above; a file overrides it.
			return simnet.Config{}, fmt.Errorf("%w: movement file has %d nodes, scenario wants %d",
				ErrBadScenario, len(trs), s.Nodes)
		}
		s.Nodes = len(trs)
		model = &mobility.FixedTrajectories{Trajectories: trs}
		modelArea = area
	} else {
		var err error
		model, modelArea, err = s.Mobility.build(area)
		if err != nil {
			return simnet.Config{}, err
		}
	}

	prop, err := radio.New(s.Propagation, rand.New(rand.NewPCG(s.Seed, 0x0bad)))
	if err != nil {
		return simnet.Config{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}

	cfg := simnet.Config{
		N:                 s.Nodes,
		Area:              modelArea,
		Duration:          s.Duration,
		Seed:              s.Seed,
		Algorithm:         alg,
		Mobility:          model,
		Propagation:       prop,
		TxRange:           s.TxRange,
		BroadcastInterval: s.BroadcastInterval,
		TimeoutPeriod:     s.TimeoutPeriod,
		Warmup:            s.Warmup,
	}
	if s.BIMin > 0 {
		cfg.Adaptive = &simnet.AdaptiveBI{
			Min:        s.BIMin,
			Max:        s.BIMax,
			MRef:       scenario.DefaultAdaptiveMRef,
			Hysteresis: scenario.DefaultAdaptiveHysteresis,
		}
	}
	if s.EnergyJ > 0 {
		ec := energy.Default()
		ec.InitialJ = s.EnergyJ
		cfg.Energy = &ec
	}
	if s.LossRate > 0 {
		lm, err := channel.NewUniformLoss(s.LossRate, rand.New(rand.NewPCG(s.Seed, 0x1055)))
		if err != nil {
			return simnet.Config{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
		}
		cfg.Loss = lm
	}
	return cfg, nil
}

// build maps the spec to an internal model and the effective area.
func (m MobilitySpec) build(area geom.Rect) (mobility.Model, geom.Rect, error) {
	maxSpeed := m.MaxSpeed
	if maxSpeed == 0 {
		maxSpeed = 20 // Table 1's default regime
	}
	switch m.Model {
	case "", "waypoint":
		return &mobility.RandomWaypoint{
			Area: area, MinSpeed: m.MinSpeed, MaxSpeed: maxSpeed, Pause: m.Pause,
			SteadyState: m.SteadyState,
		}, area, nil
	case "static":
		return &mobility.Static{Area: area}, area, nil
	case "walk":
		return &mobility.RandomWalk{
			Area: area, MinSpeed: m.MinSpeed, MaxSpeed: maxSpeed,
		}, area, nil
	case "gauss-markov":
		return &mobility.GaussMarkov{
			Area: area, MeanSpeed: maxSpeed, SigmaSpeed: maxSpeed / 4,
			SigmaDir: 0.3, Alpha: 0.85,
		}, area, nil
	case "rpgm":
		groups := m.Groups
		if groups <= 0 {
			groups = 4
		}
		radius := m.GroupRadius
		if radius <= 0 {
			radius = 100
		}
		jitter := m.LocalJitter
		if jitter <= 0 {
			jitter = radius / 10
		}
		return &mobility.RPGM{
			Area: area, Groups: groups, GroupRadius: radius,
			MinSpeed: m.MinSpeed, MaxSpeed: maxSpeed, Pause: m.Pause,
			LocalJitter: jitter,
		}, area, nil
	case "highway":
		lanes := m.Lanes
		if lanes <= 0 {
			lanes = 4
		}
		hw := &mobility.Highway{
			Length:        area.Width(),
			Lanes:         lanes,
			LaneWidth:     m.LaneWidth,
			MinSpeed:      m.MinSpeed,
			MaxSpeed:      maxSpeed,
			SpeedJitter:   m.SpeedJitter,
			Bidirectional: m.Bidirectional,
		}
		return hw, hw.Area(), nil
	case "manhattan":
		blocks := m.Blocks
		if blocks <= 0 {
			blocks = 5
		}
		turn := m.TurnProb
		if turn <= 0 {
			turn = 0.25
		}
		return &mobility.Manhattan{
			Area: area, Blocks: blocks,
			MinSpeed: m.MinSpeed, MaxSpeed: maxSpeed, TurnProb: turn,
		}, area, nil
	case "conference":
		frac := m.WandererFraction
		if frac == 0 {
			frac = 0.15
		}
		return &mobility.Conference{
			Area:             area,
			WandererFraction: frac,
			WalkSpeed:        maxSpeed,
			SitPause:         m.Pause,
			FidgetRadius:     0.5,
		}, area, nil
	default:
		return nil, geom.Rect{}, fmt.Errorf("%w: unknown mobility model %q", ErrBadScenario, m.Model)
	}
}

// RelativeMobility exposes the paper's pairwise metric (equation 1):
// 10*log10(prNew/prOld) dB for two successive received powers.
func RelativeMobility(prOld, prNew float64) (float64, error) {
	return core.RelativeMobility(prOld, prNew)
}

// AggregateLocalMobility exposes the paper's aggregate metric (equation 2):
// the variance about zero of the pairwise samples.
func AggregateLocalMobility(pairwise []float64) float64 {
	return core.AggregateLocalMobility(pairwise)
}
