package simnet

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"mobic/internal/cluster"
	"mobic/internal/core"
	"mobic/internal/geom"
	"mobic/internal/graph"
	"mobic/internal/metrics"
	"mobic/internal/mobility"
	"mobic/internal/obs"
	"mobic/internal/radio"
	"mobic/internal/sim"
	"mobic/internal/spatial"
	"mobic/internal/trace"
)

// neighborEntry is what the hello protocol knows about one neighbor from its
// most recent beacon.
type neighborEntry struct {
	lastHeard float64
	weight    cluster.Weight
	role      cluster.Role
	head      int32
}

// runtimeNode is the per-node simulation state that is inherently
// reference-shaped (state machines, maps, events). The hot scalar state a
// beacon tick reads and writes — down flag, cached mobility, tick count,
// custom weight — lives in dense struct-of-arrays slices on the Network
// instead (down, lastM, tickCount, customW), so the tick loop walks
// cache-linear memory rather than chasing one pointer per node.
type runtimeNode struct {
	id      int32
	cnode   *cluster.Node
	tracker *core.Tracker
	traj    *mobility.Trajectory
	table   map[int32]*neighborEntry
	// tickEv is the node's persistent hello-protocol event: the callback is
	// bound once at construction and the same event is rescheduled for
	// every beacon, so a steady beacon stream allocates neither events nor
	// closures. Recovery after a crash reschedules it too, which moves any
	// stale queued beacon instead of starting a second chain.
	tickEv *sim.Event
	// pendingRx holds in-flight beacon receptions when the MAC collision
	// model is enabled.
	pendingRx []*reception
}

// reception is one in-flight beacon at a receiver (collision model only).
// Receptions are pooled on the Network and each carries its own persistent
// end-of-airtime event, so the MAC model's per-delivery bookkeeping is
// allocation-free at steady state.
type reception struct {
	tx       int32
	end      float64
	pr       float64
	adv      advertisement
	collided bool
	// rx is the receiving node; set while the reception is in flight.
	rx *runtimeNode
	// ev fires endReception for this object at rec.end.
	ev *sim.Event
}

// Network is one fully wired simulation run.
type Network struct {
	cfg      Config
	sched    *sim.Scheduler
	streams  *sim.Streams
	nodes    []*runtimeNode
	grid     *spatial.Grid
	rxThresh float64
	rec      *metrics.Recorder
	// Dense struct-of-arrays node state, indexed by node id (see
	// runtimeNode). down marks crashed nodes; lastM caches the aggregate
	// mobility computed at the last tick (inspection + adaptive BI);
	// tickCount counts completed hello rounds (the first is listen-only);
	// customW holds DCA static weights (nil unless the algorithm needs it).
	down      []bool
	lastM     []float64
	tickCount []int32
	customW   []float64
	// Per-node policy state, allocated only when the policy is enabled so
	// the baseline tick touches nothing new. curBI is the adaptive
	// broadcast policy's current interval (0 = uninitialized, adopt the
	// target); batteryJ and lastDrain carry the energy model's remaining
	// joules and the time idle drain was last charged; rotated marks nodes
	// already forced out of the head role by the battery threshold, so the
	// rotation surcharge sticks (batteries only drain, the node stays below
	// the threshold) and the hand-off fires at most once per node;
	// headRounds counts consecutive clusterhead rounds for adaptive ID
	// reassignment.
	curBI      []float64
	batteryJ   []float64
	lastDrain  []float64
	rotated    []bool
	headRounds []int32
	// depleted counts nodes killed by battery exhaustion.
	depleted int
	// obsRec receives engine telemetry; obs.Nop unless Config.Obs set one.
	obsRec obs.Recorder
	// bruteForce disables the spatial-index candidate query for
	// propagation models (shadowing) whose delivery range is unbounded.
	bruteForce bool
	// candidateSlack widens the index query beyond TxRange to cover
	// receiver positions that are up to one beacon interval stale; the
	// function of the same name derives it.
	candidateSlack float64
	// beaconJitter randomizes each beacon's phase when the collision
	// model is on (nil otherwise).
	beaconJitter *rand.Rand
	// sampleEv is the persistent cluster-sampler event.
	sampleEv *sim.Event
	// scratch buffers reused across broadcasts and ticks.
	candBuf []int32
	viewBuf []cluster.NeighborView
	// idBuf holds the sorted neighbor ids of the node currently ticking.
	// The canonical ascending order makes timeout emission, the neighbor
	// views handed to the clustering step, and the oracle-mobility fold all
	// independent of Go's randomized map iteration.
	idBuf []int32
	// rxFree and entryFree recycle MAC receptions and neighbor-table
	// entries.
	rxFree    []*reception
	entryFree []*neighborEntry
	// sampler scratch: cluster sizes indexed by head id, the list of head
	// ids touched this sample, the sizes handed to the recorder, the
	// position snapshot, and the reusable topology graph.
	sizeCount []int32
	touched   []int32
	sizesBuf  []int
	topoPos   []geom.Point
	topo      *graph.Adjacency
}

// emit records ev in the trace ring buffer and feeds the observer hook.
// Every simulator event flows through here, so the pair stays consistent:
// the ring holds the recent window for inspection, the observer sees the
// complete stream for digesting.
func (n *Network) emit(ev trace.Event) {
	n.cfg.Trace.Record(ev)
	if n.cfg.Observer != nil {
		n.cfg.Observer(ev)
	}
}

// New builds a network from cfg. The mobility trajectories are generated
// eagerly so errors surface here rather than mid-run.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	streams := sim.NewStreams(cfg.Seed)

	trajs, err := cfg.Mobility.Generate(cfg.N, cfg.Duration, streams)
	if err != nil {
		return nil, fmt.Errorf("simnet: generating mobility: %w", err)
	}

	thresh, err := radio.ThresholdForRange(cfg.Propagation, cfg.TxPower, cfg.TxRange)
	if err != nil {
		return nil, fmt.Errorf("simnet: calibrating rx threshold: %w", err)
	}

	_, shadowing := cfg.Propagation.(*radio.Shadowing)

	cellSize := cfg.TxRange
	if cellSize > cfg.Area.Width()/2 {
		cellSize = cfg.Area.Width() / 2
	}
	grid, err := spatial.NewGrid(cfg.Area, cellSize, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("simnet: building spatial index: %w", err)
	}

	weights := cfg.CustomWeights
	if cfg.Algorithm.WeightKind == cluster.KindCustom && weights == nil {
		rng := streams.Named("dca-weights")
		weights = make([]float64, cfg.N)
		for i := range weights {
			weights[i] = rng.Float64()
		}
	}

	n := &Network{
		cfg:            cfg,
		sched:          sim.NewScheduler(),
		streams:        streams,
		grid:           grid,
		rxThresh:       thresh,
		rec:            newRecorder(cfg),
		obsRec:         cfg.Obs,
		bruteForce:     shadowing || cfg.ForceBruteForce,
		candidateSlack: candidateSlack(cfg, trajs),
	}
	n.sched.SetRecorder(n.obsRec)
	n.down = make([]bool, cfg.N)
	n.lastM = make([]float64, cfg.N)
	n.tickCount = make([]int32, cfg.N)
	n.customW = weights
	if cfg.Adaptive != nil {
		n.curBI = make([]float64, cfg.N)
	}
	if cfg.Energy != nil {
		n.batteryJ = make([]float64, cfg.N)
		n.lastDrain = make([]float64, cfg.N)
		n.rotated = make([]bool, cfg.N)
		for i := range n.batteryJ {
			n.batteryJ[i] = cfg.Energy.InitialJ
		}
	}
	if cfg.Algorithm.WeightKind == cluster.KindAdaptiveID {
		n.headRounds = make([]int32, cfg.N)
	}
	if cfg.HelloCollisions {
		n.beaconJitter = streams.Named("beacon-jitter")
	}

	for i := 0; i < cfg.N; i++ {
		id := int32(i)
		var opts []core.Option
		if a := cfg.Algorithm.EWMAAlpha; a > 0 && a < 1 {
			opts = append(opts, core.WithEWMA(a))
		}
		if a := cfg.Algorithm.PairwiseEWMAAlpha; a > 0 && a < 1 {
			opts = append(opts, core.WithPairwiseEWMA(a))
		}
		rn := &runtimeNode{
			id:      id,
			cnode:   cluster.NewNode(id, cfg.Algorithm.Policy),
			tracker: core.NewTracker(opts...),
			traj:    trajs[i],
			table:   make(map[int32]*neighborEntry),
		}
		rn.cnode.OnRoleChange(func(now float64, old, newRole cluster.Role) {
			n.rec.RoleChange(now, id, old, newRole)
			n.obsRec.Add(obs.NetRoleChanges, 1)
			n.emit(trace.Event{
				T: now, Kind: trace.KindRoleChange, Node: id, Other: -1,
				Value: float64(newRole),
			})
		})
		rn.cnode.OnHeadChange(func(now float64, oldHead, newHead int32) {
			n.rec.HeadChange(now, id, oldHead, newHead)
			n.obsRec.Add(obs.NetHeadChanges, 1)
			n.emit(trace.Event{
				T: now, Kind: trace.KindHeadChange, Node: id, Other: newHead,
				Value: float64(oldHead),
			})
		})
		n.nodes = append(n.nodes, rn)
		grid.Update(id, trajs[i].At(0))
	}

	// Arm the hello protocol and the cluster-count sampler now so callers
	// can interleave RunUntil with inspection before calling Run. Each
	// node's tick event is created once and rescheduled forever after.
	jitter := streams.Named("hello-jitter")
	for _, rn := range n.nodes {
		rn := rn
		rn.tickEv = n.sched.NewEvent(func(now float64) { n.tick(rn, now) })
		start := jitter.Float64() * cfg.BroadcastInterval
		if err := n.sched.Reschedule(rn.tickEv, start); err != nil {
			return nil, fmt.Errorf("simnet: scheduling initial beacon: %w", err)
		}
	}
	n.sampleEv = n.sched.NewEvent(n.sampleClusters)
	if err := n.sched.Reschedule(n.sampleEv, cfg.SampleInterval); err != nil {
		return nil, fmt.Errorf("simnet: scheduling sampler: %w", err)
	}
	for _, app := range cfg.Apps {
		app.Start(&appAPI{n: n, rng: streams.Named("app-" + app.Name())})
	}
	for _, f := range cfg.Failures {
		f := f
		rn := n.nodes[f.Node]
		if _, err := n.sched.At(f.At, func(now float64) { n.crash(rn, now) }); err != nil {
			return nil, fmt.Errorf("simnet: scheduling failure: %w", err)
		}
		if f.RecoverAt > 0 {
			if _, err := n.sched.At(f.RecoverAt, func(now float64) { n.recover(rn, now) }); err != nil {
				return nil, fmt.Errorf("simnet: scheduling recovery: %w", err)
			}
		}
	}
	return n, nil
}

// candidateSlack is how far beyond TxRange the broadcast's index query must
// reach. A node's grid entry is refreshed only when it broadcasts, so a
// receiver can sit up to one beacon interval of motion away from its indexed
// position: the fastest trajectory's top leg speed times the longest interval
// any node can schedule (the adaptive policy's Max when it exceeds BI,
// stretched 10% by the collision model's jitter). The 0.5 m absorbs float
// rounding at the exact-threshold boundary. Candidates the slack admits
// needlessly are filtered out by the exact power test.
func candidateSlack(cfg Config, trajs []*mobility.Trajectory) float64 {
	maxSpeed := 0.0
	for _, tr := range trajs {
		maxSpeed = max(maxSpeed, tr.MaxSpeed())
	}
	interval := cfg.BroadcastInterval
	if a := cfg.Adaptive; a != nil {
		interval = max(interval, a.Max)
	}
	if cfg.HelloCollisions {
		interval *= 1.1
	}
	return maxSpeed*interval + 0.5
}

// crash takes a node down: it abdicates any role (observers see the CH
// loss), forgets all protocol state and stops participating. Its next tick
// will see the down flag and stop rescheduling.
func (n *Network) crash(rn *runtimeNode, now float64) {
	if n.down[rn.id] {
		return
	}
	n.down[rn.id] = true
	rn.cnode.Reset(now)
	rn.tracker.Reset()
	for _, e := range rn.table {
		n.releaseEntry(e)
	}
	clear(rn.table)
	for _, rec := range rn.pendingRx {
		n.sched.Cancel(rec.ev)
		n.releaseReception(rec)
	}
	rn.pendingRx = rn.pendingRx[:0]
	n.lastM[rn.id] = 0
	if n.curBI != nil {
		n.curBI[rn.id] = 0 // a recovered node re-adopts the target interval
	}
	if n.headRounds != nil {
		n.headRounds[rn.id] = 0 // head tenure does not survive a crash
	}
	n.emit(trace.Event{T: now, Kind: trace.KindTimeout, Node: rn.id, Other: -1, Value: -1})
}

// recover revives a crashed node as a fresh undecided participant and
// restarts its beacon schedule.
func (n *Network) recover(rn *runtimeNode, now float64) {
	if !n.down[rn.id] {
		return
	}
	n.down[rn.id] = false
	n.tickCount[rn.id] = 0 // listen-only first beacon again
	if n.lastDrain != nil {
		n.lastDrain[rn.id] = now // a crashed radio drew nothing while down
	}
	// Rescheduling the persistent event moves any still-queued stale beacon
	// to now instead of starting a second, doubled beacon chain.
	if err := n.sched.Reschedule(rn.tickEv, now); err != nil {
		return
	}
}

// newRecorder builds the metrics recorder for a validated config.
func newRecorder(cfg Config) *metrics.Recorder {
	rec := metrics.NewRecorder(cfg.N, cfg.Warmup)
	if cfg.TimelineWindow > 0 {
		rec.SetTimelineWindow(cfg.TimelineWindow)
	}
	return rec
}

// Timeline returns the per-window clusterhead-change counts and the window
// size (nil/0 when Config.TimelineWindow was not set).
func (n *Network) Timeline() ([]int, float64) {
	return n.rec.Timeline()
}

// ResidenceDurations returns every recorded clusterhead tenure in seconds.
func (n *Network) ResidenceDurations() []float64 {
	return n.rec.ResidenceDurations()
}

// Result summarizes a completed run.
type Result struct {
	// Metrics carries the paper's evaluation measurements.
	Metrics metrics.Result
	// Algorithm is the algorithm name the run used.
	Algorithm string
	// Seed is the scenario seed.
	Seed uint64
	// FinalHeads is the number of clusterheads at the end of the run.
	FinalHeads int
	// EventsFired is the number of simulator events executed.
	EventsFired uint64
	// EnergyDepleted is the number of nodes that died of battery
	// exhaustion during the run (0 unless Config.Energy was set).
	EnergyDepleted int
}

// Run executes the simulation to completion and returns the metrics.
// A network can only be run once (interleaving RunUntil beforehand is fine).
func (n *Network) Run() (*Result, error) {
	return n.RunContext(context.Background())
}

// runChunk is the simulated-seconds granularity at which RunContext checks
// for cancellation: small enough that a canceled 900 s run stops within a
// few percent of its work, large enough that the check is free.
const runChunk = 10.0

// RunContext executes the simulation to completion, checking ctx between
// scheduler chunks so a canceled or timed-out caller stops promptly
// mid-run. It returns ctx.Err() when interrupted.
func (n *Network) RunContext(ctx context.Context) (*Result, error) {
	// The wall-clock reads exist only to feed telemetry (sim-rate gauge,
	// sampled chunk spans); they are gated on Enabled so the uninstrumented
	// path does no timing work at all. Telemetry never affects the
	// simulation itself.
	instrumented := n.obsRec.Enabled()
	for now := n.sched.Now(); now < n.cfg.Duration; now = n.sched.Now() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		horizon := now + runChunk
		if horizon > n.cfg.Duration {
			horizon = n.cfg.Duration
		}
		if !instrumented {
			n.sched.RunUntil(horizon)
			continue
		}
		wallStart := time.Now()
		n.sched.RunUntil(horizon)
		wallEnd := time.Now()
		if wall := wallEnd.Sub(wallStart).Seconds(); wall > 0 {
			n.obsRec.Set(obs.SimRate, (horizon-now)/wall)
		}
		n.obsRec.Span(obs.SpanSimChunk, wallStart.UnixNano(), wallEnd.UnixNano())
	}
	n.rec.Finalize(n.cfg.Duration)

	heads := 0
	for _, rn := range n.nodes {
		if rn.cnode.Role() == cluster.RoleHead {
			heads++
		}
	}
	return &Result{
		Metrics:        n.rec.Snapshot(),
		Algorithm:      n.cfg.Algorithm.Name,
		Seed:           n.cfg.Seed,
		FinalHeads:     heads,
		EventsFired:    n.sched.Fired(),
		EnergyDepleted: n.depleted,
	}, nil
}

// tick is one hello-protocol round for one node: purge stale neighbors,
// compute the fresh weight, run the clustering decision, broadcast, and
// schedule the next tick.
//
// The whole round walks the neighbor table in ascending-id order through a
// single sorted scratch pass: timeouts are emitted canonically, the views
// handed to the clustering step are id-ordered, and the surviving id list
// feeds the oracle-mobility fold. Nothing here depends on Go's randomized
// map iteration, so repeated runs are bit-identical.
func (n *Network) tick(rn *runtimeNode, now float64) {
	if n.down[rn.id] {
		return // crashed: the beacon chain stops until recovery
	}
	// Charge the idle drain accrued since the last accounting point and
	// kill the node if its battery is spent. Death reuses the crash path —
	// neighbors time the node out, its cluster re-forms — and is permanent:
	// batteries do not recharge, so no recovery is scheduled.
	if n.batteryJ != nil {
		n.batteryJ[rn.id] -= n.cfg.Energy.IdleCost(now - n.lastDrain[rn.id])
		n.lastDrain[rn.id] = now
		if n.batteryJ[rn.id] <= 0 {
			n.depleted++
			n.crash(rn, now)
			return
		}
	}
	// Purge neighbors that missed their beacons (Table 1: TP).
	tp := n.cfg.TimeoutPeriod
	rn.tracker.Expire(now, tp)
	ids := n.idBuf[:0]
	for id := range rn.table {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	live := ids[:0] // compact survivors into the same backing array
	for _, id := range ids {
		e := rn.table[id]
		if e.lastHeard < now-tp {
			delete(rn.table, id)
			n.releaseEntry(e)
			n.obsRec.Add(obs.NetNeighborTimeouts, 1)
			n.emit(trace.Event{
				T: now, Kind: trace.KindTimeout, Node: rn.id, Other: id,
			})
			continue
		}
		live = append(live, id)
	}
	n.idBuf = ids

	n.lastM[rn.id] = rn.tracker.Aggregate()
	wasHead := rn.cnode.Role() == cluster.RoleHead
	weight := n.weightOf(rn, live)

	// The first tick is listen-only: the node has had no chance to hear
	// anyone, and electing heads blind would register a storm of spurious
	// clusterhead changes for every algorithm alike.
	if n.tickCount[rn.id] > 0 {
		views := n.viewBuf[:0]
		for _, id := range live {
			e := rn.table[id]
			views = append(views, cluster.NeighborView{
				ID:     id,
				Weight: e.weight,
				Role:   e.role,
				Head:   e.head,
			})
		}
		n.viewBuf = views
		rn.cnode.Step(now, weight, views)
	} else {
		// Keep the advertised weight fresh even while listening.
		rn.cnode.SetWeight(weight)
	}
	n.tickCount[rn.id]++

	// Rotation policies. LCC never deposes a head unless a rival head walks
	// into range, so both rotation mechanisms must force the hand-off from
	// outside the clustering rules: the node resigns, and the weight it
	// advertises in this round's beacon (recomputed below) carries the
	// penalty that keeps it from winning the vacated role straight back.
	resigned := false

	// Adaptive ID reassignment's tenure counter: one consecutive round of
	// head service per beacon. Completing ReassignRounds of service expires
	// the tenure — the node resigns and its effective ID (headRounds/rr*N)
	// jumps behind every fresh node. The counter holds while undecided so
	// the bumped ID stays advertised through re-election, and resets only
	// once the node has joined a new head as a member.
	if n.headRounds != nil {
		switch rn.cnode.Role() {
		case cluster.RoleHead:
			n.headRounds[rn.id]++
			if rr := int32(n.cfg.Algorithm.ReassignRounds); rr > 0 && n.headRounds[rn.id]%rr == 0 {
				resigned = true
			}
		case cluster.RoleMember:
			n.headRounds[rn.id] = 0
		}
	}

	// Energy rotation: a head whose battery falls under the rotation
	// threshold hands the role off once, after at least one full round of
	// service — wasHead gates out a node elected this very Step, which
	// would otherwise resign in the same tick with zero tenure whenever
	// the whole cluster is already below the threshold. The rotated mark
	// is permanent — batteries only drain — and keeps the election
	// surcharge applied, so an exactly-tied battery cannot re-elect the
	// ex-head by lowest ID.
	if e := n.cfg.Energy; e != nil && e.ElectionWeight > 0 && e.RotateFrac > 0 &&
		!n.rotated[rn.id] && wasHead && rn.cnode.Role() == cluster.RoleHead &&
		e.Fraction(n.batteryJ[rn.id]) < e.RotateFrac {
		n.rotated[rn.id] = true
		resigned = true
	}
	if resigned {
		rn.cnode.Resign(now)
		rn.cnode.SetWeight(n.weightOf(rn, live))
	}

	n.broadcast(rn, now)

	interval := n.cfg.BroadcastInterval
	if a := n.cfg.Adaptive; a != nil {
		interval = a.Next(n.curBI[rn.id], n.lastM[rn.id])
		n.curBI[rn.id] = interval
	}
	if n.beaconJitter != nil {
		// Per-beacon phase jitter (±10%) so fixed schedules cannot
		// collide persistently under the MAC model.
		interval *= 1 + 0.2*(n.beaconJitter.Float64()-0.5)
	}
	if err := n.sched.Reschedule(rn.tickEv, now+interval); err != nil {
		// Scheduling forward from a valid now cannot fail; if it does, the
		// simulation is corrupt and stopping beacons is the safest course.
		n.emit(trace.Event{T: now, Kind: trace.KindDrop, Node: rn.id, Other: -1})
	}
}

// weightOf computes the node's current election weight per the algorithm's
// weight kind. neighborIDs is the node's current neighbor-id list in
// ascending order (tick's post-purge survivors).
func (n *Network) weightOf(rn *runtimeNode, neighborIDs []int32) cluster.Weight {
	var w cluster.Weight
	switch n.cfg.Algorithm.WeightKind {
	case cluster.KindID:
		w = cluster.Weight{Value: float64(rn.id), ID: rn.id}
	case cluster.KindMobility:
		value := n.lastM[rn.id]
		if c := n.cfg.CombinedDegreeWeight; c > 0 {
			dev := len(rn.table) - n.cfg.IdealDegree
			if dev < 0 {
				dev = -dev
			}
			value += c * float64(dev)
		}
		w = cluster.Weight{Value: value, ID: rn.id}
	case cluster.KindDegree:
		w = cluster.Weight{Value: -float64(len(rn.table)), ID: rn.id}
	case cluster.KindCustom:
		w = cluster.Weight{Value: n.customW[rn.id], ID: rn.id}
	case cluster.KindOracleMobility:
		w = cluster.Weight{Value: n.oracleMobility(rn, neighborIDs), ID: rn.id}
	case cluster.KindAdaptiveID:
		// Adaptive ID reassignment: every completed ReassignRounds of
		// uninterrupted head service pushes the effective ID behind all N
		// fresh nodes. Both terms are exact small integers in float64, so
		// the ordering is deterministic across platforms.
		value := float64(rn.id)
		if rr := n.cfg.Algorithm.ReassignRounds; rr > 0 {
			value += float64(n.headRounds[rn.id]/int32(rr)) * float64(n.cfg.N)
		}
		w = cluster.Weight{Value: value, ID: rn.id}
	default:
		w = cluster.Weight{Value: float64(rn.id), ID: rn.id}
	}
	// Energy-weighted election rides on top of any base weight: a draining
	// battery worsens the advertised weight, and a head under the rotation
	// threshold — or a node already rotated out of the role — takes an
	// extra surcharge so a healthier rival wins the election instead.
	if e := n.cfg.Energy; e != nil && e.ElectionWeight > 0 {
		surcharge := rn.cnode.Role() == cluster.RoleHead || n.rotated[rn.id]
		w.Value += e.Penalty(n.batteryJ[rn.id], surcharge)
	}
	return w
}

// oracleMobility computes the GPS-oracle analog of the aggregate local
// mobility: the variance about zero of the ground-truth range rate (m/s)
// toward every neighbor currently in the hello table. It measures exactly
// what the RxPr-ratio metric estimates, but from the trajectories directly.
//
// neighborIDs must be in ascending order: floating-point addition is not
// associative, so folding sumSq in map order would make the low bits of the
// weight — and with them election outcomes — vary run to run.
func (n *Network) oracleMobility(rn *runtimeNode, neighborIDs []int32) float64 {
	const dt = 0.5 // range-rate differencing window in seconds
	now := n.sched.Now()
	t0 := now - dt
	if t0 < 0 {
		t0 = 0
	}
	if now <= t0 {
		return 0
	}
	selfNow := rn.traj.At(now)
	selfThen := rn.traj.At(t0)
	var sumSq float64
	for _, id := range neighborIDs {
		other := n.nodes[id]
		dNow := selfNow.Dist(other.traj.At(now))
		dThen := selfThen.Dist(other.traj.At(t0))
		rate := (dNow - dThen) / (now - t0)
		sumSq += rate * rate
	}
	if len(neighborIDs) == 0 {
		return 0
	}
	return sumSq / float64(len(neighborIDs))
}

// helloBytes is the payload size of one hello beacon. The base carries the
// sender id, role and clusterhead (the Lowest-ID protocol's needs); a
// mobility-weighted algorithm stamps its aggregate M as a double — the
// paper's "increased by 8 bytes only" observation (Section 4.1 footnote 7).
func (n *Network) helloBytes() int {
	const base = 12 // id (4) + role (1, padded) + head (4) + seq/flags
	switch n.cfg.Algorithm.WeightKind {
	case cluster.KindMobility, cluster.KindOracleMobility, cluster.KindCustom:
		return base + 8 // double-precision weight
	case cluster.KindDegree, cluster.KindAdaptiveID:
		return base + 4 // degree counter / reassignment epoch
	default:
		return base
	}
}

// broadcast delivers rn's hello to every node whose received power clears
// the threshold, subject to the loss model. Candidates are always visited in
// ascending receiver-id order — the canonical delivery order both the brute
// force scan and the grid query reproduce exactly, which is what keeps the
// loss model's RNG draw sequence identical across them.
func (n *Network) broadcast(rn *runtimeNode, now float64) {
	n.rec.CountBroadcast(n.helloBytes())
	n.obsRec.Add(obs.NetBeaconsSent, 1)
	if n.batteryJ != nil {
		// Transmit cost; depletion is checked at the next tick, matching a
		// radio that completes the frame its amplifier already started.
		n.batteryJ[rn.id] -= n.cfg.Energy.TxCost(n.helloBytes())
	}

	txPos := rn.traj.At(now)
	n.grid.Update(rn.id, txPos)
	n.emit(trace.Event{
		T: now, Kind: trace.KindBroadcast, Node: rn.id, Other: -1,
		Value: rn.cnode.Weight().Value,
	})

	adv := advertisement{
		weight: rn.cnode.Weight(),
		role:   rn.cnode.Role(),
		head:   rn.cnode.Head(),
	}

	if n.bruteForce {
		for _, rx := range n.nodes {
			if rx.id != rn.id {
				n.tryDeliver(rn, rx, txPos, now, adv)
			}
		}
		return
	}
	n.candBuf = n.grid.QueryRange(txPos, n.cfg.TxRange+n.candidateSlack, rn.id, n.candBuf[:0])
	slices.Sort(n.candBuf) // canonical ascending delivery order
	for _, id := range n.candBuf {
		n.tryDeliver(rn, n.nodes[id], txPos, now, adv)
	}
}

// advertisement is the hello payload: the paper's hello message carries the
// sender's aggregate mobility (8 bytes) plus its clustering state.
type advertisement struct {
	weight cluster.Weight
	role   cluster.Role
	head   int32
}

// tryDeliver computes the exact received power at rx and delivers the hello
// if it clears the threshold, survives the loss model, and (when the MAC
// collision model is on) does not overlap another reception.
func (n *Network) tryDeliver(tx, rx *runtimeNode, txPos geom.Point, now float64, adv advertisement) {
	if n.down[rx.id] {
		return
	}
	rxPos := rx.traj.At(now)
	d := txPos.Dist(rxPos)
	pr := n.cfg.Propagation.RxPower(n.cfg.TxPower, d)
	if pr < n.rxThresh {
		return
	}
	if n.cfg.Loss.Drops(tx.id, rx.id, now) {
		n.rec.CountDrop()
		n.obsRec.Add(obs.NetDrops, 1)
		n.emit(trace.Event{
			T: now, Kind: trace.KindDrop, Node: tx.id, Other: rx.id, Value: pr,
		})
		return
	}
	if n.cfg.HelloCollisions {
		n.deferDelivery(tx, rx, now, pr, adv)
		return
	}
	n.applyHello(tx.id, rx, now, pr, adv)
}

// newReception draws a reception from the pool. A reception's end-of-airtime
// event is created once, bound to the object for life, and re-armed with
// Reschedule on every reuse.
func (n *Network) newReception() *reception {
	if k := len(n.rxFree); k > 0 {
		rec := n.rxFree[k-1]
		n.rxFree[k-1] = nil
		n.rxFree = n.rxFree[:k-1]
		return rec
	}
	rec := &reception{}
	rec.ev = n.sched.NewEvent(func(t float64) { n.endReception(rec, t) })
	return rec
}

// releaseReception returns a no-longer-pending reception to the pool.
func (n *Network) releaseReception(rec *reception) {
	rec.rx = nil
	rec.collided = false
	n.rxFree = append(n.rxFree, rec)
}

// newEntry draws a neighbor-table entry from the pool.
func (n *Network) newEntry() *neighborEntry {
	if k := len(n.entryFree); k > 0 {
		e := n.entryFree[k-1]
		n.entryFree[k-1] = nil
		n.entryFree = n.entryFree[:k-1]
		return e
	}
	return &neighborEntry{}
}

// releaseEntry returns a purged neighbor-table entry to the pool.
func (n *Network) releaseEntry(e *neighborEntry) {
	*e = neighborEntry{}
	n.entryFree = append(n.entryFree, e)
}

// deferDelivery models the beacon's airtime: the packet is handed up only
// at the end of its transmission, and any overlapping reception at the same
// receiver destroys both (no capture).
func (n *Network) deferDelivery(tx, rx *runtimeNode, now, pr float64, adv advertisement) {
	rec := n.newReception()
	rec.tx, rec.end, rec.pr, rec.adv, rec.rx = tx.id, now+n.cfg.HelloAirtime, pr, adv, rx
	// Mark collisions against still-in-flight receptions and prune the
	// rest lazily.
	live := rx.pendingRx[:0]
	for _, other := range rx.pendingRx {
		if other.end > now {
			other.collided = true
			rec.collided = true
			live = append(live, other)
		}
	}
	rx.pendingRx = append(live, rec)
	if err := n.sched.Reschedule(rec.ev, rec.end); err != nil {
		rx.pendingRx = rx.pendingRx[:len(rx.pendingRx)-1]
		n.releaseReception(rec)
	}
}

// endReception is a reception's end-of-airtime: the packet is handed up to
// the receiver unless it collided (or the receiver crashed mid-airtime), and
// the reception object goes back to the pool either way.
func (n *Network) endReception(rec *reception, t float64) {
	rx := rec.rx
	for i, r := range rx.pendingRx {
		if r == rec {
			rx.pendingRx = append(rx.pendingRx[:i], rx.pendingRx[i+1:]...)
			break
		}
	}
	txID, pr, adv, collided := rec.tx, rec.pr, rec.adv, rec.collided
	n.releaseReception(rec)
	if n.down[rx.id] {
		return
	}
	if collided {
		n.rec.CountCollision()
		n.obsRec.Add(obs.NetCollisions, 1)
		n.emit(trace.Event{
			T: t, Kind: trace.KindDrop, Node: txID, Other: rx.id, Value: pr,
		})
		return
	}
	n.applyHello(txID, rx, t, pr, adv)
}

// applyHello is the receiver's MAC handing up one successfully received
// beacon: it records the measured RxPr (equation 1's input) and updates the
// neighbor table with the advertised clustering state.
func (n *Network) applyHello(txID int32, rx *runtimeNode, now, pr float64, adv advertisement) {
	n.rec.CountDelivery()
	n.obsRec.Add(obs.NetDeliveries, 1)
	if n.batteryJ != nil {
		n.batteryJ[rx.id] -= n.cfg.Energy.RxCost(n.helloBytes())
	}
	n.emit(trace.Event{
		T: now, Kind: trace.KindDeliver, Node: txID, Other: rx.id, Value: pr,
	})
	if err := rx.tracker.Observe(txID, now, pr); err != nil {
		// RxPower of a validated model is always positive; skip defensively.
		return
	}
	e, ok := rx.table[txID]
	if !ok {
		e = n.newEntry()
		rx.table[txID] = e
		n.obsRec.Add(obs.NetNeighborAdds, 1)
	}
	e.lastHeard = now
	e.weight = adv.weight
	e.role = adv.role
	e.head = adv.head
}

// sampleClusters periodically counts heads, gateways and cluster sizes for
// Figure 4 and the size-distribution metrics. All bookkeeping runs over
// reused buffers — cluster sizes in a dense head-indexed table instead of a
// per-sample map, topology through an in-place graph rebuild — so the
// sampler costs no allocations at steady state.
func (n *Network) sampleClusters(now float64) {
	heads, gateways, noHead := 0, 0, 0
	if cap(n.sizeCount) < len(n.nodes) {
		n.sizeCount = make([]int32, len(n.nodes))
	}
	sizeCount := n.sizeCount[:len(n.nodes)]
	touched := n.touched[:0]
	for _, rn := range n.nodes {
		if n.down[rn.id] {
			continue
		}
		switch rn.cnode.Role() {
		case cluster.RoleHead:
			if sizeCount[rn.id] == 0 {
				touched = append(touched, rn.id)
			}
			sizeCount[rn.id]++
			heads++
		case cluster.RoleMember:
			if h := rn.cnode.Head(); h >= 0 && int(h) < len(sizeCount) {
				if sizeCount[h] == 0 {
					touched = append(touched, h)
				}
				sizeCount[h]++
			} else {
				// A member without a head violates the state-machine
				// invariant; count it as its own degenerate cluster the way
				// the NoHead map bucket used to.
				noHead++
			}
			audible := 0
			for _, e := range rn.table {
				if e.role == cluster.RoleHead {
					audible++
				}
			}
			if audible >= 2 {
				gateways++
			}
		}
	}
	n.rec.SampleClusters(now, heads, gateways)
	if len(touched) > 0 || noHead > 0 {
		sizes := n.sizesBuf[:0]
		for _, h := range touched {
			sizes = append(sizes, int(sizeCount[h]))
			sizeCount[h] = 0
		}
		if noHead > 0 {
			sizes = append(sizes, noHead)
		}
		n.sizesBuf = sizes
		n.rec.SampleClusterSizes(now, sizes)
	}
	n.touched = touched[:0]

	pos := n.topoPos[:0]
	for _, rn := range n.nodes {
		pos = append(pos, rn.traj.At(now))
	}
	n.topoPos = pos
	if n.topo == nil {
		n.topo = &graph.Adjacency{}
	}
	n.topo.Rebuild(pos, n.cfg.TxRange)
	comps, largest := n.topo.ComponentStats()
	n.rec.SampleTopology(now, comps, largest, len(n.nodes))
	if now+n.cfg.SampleInterval <= n.cfg.Duration {
		if err := n.sched.Reschedule(n.sampleEv, now+n.cfg.SampleInterval); err != nil {
			return
		}
	}
}
