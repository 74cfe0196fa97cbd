package simnet

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"mobic/internal/channel"
	"mobic/internal/cluster"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/radio"
	"mobic/internal/sim"
	"mobic/internal/trace"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func waypointConfig(alg cluster.Algorithm, tx float64, seed uint64) Config {
	area := geom.Square(670)
	return Config{
		N:         50,
		Area:      area,
		Duration:  300,
		Seed:      seed,
		Algorithm: alg,
		Mobility:  &mobility.RandomWaypoint{Area: area, MaxSpeed: 20},
		TxRange:   tx,
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, waypointConfig(cluster.MOBIC, 150, 7))
	b := mustRun(t, waypointConfig(cluster.MOBIC, 150, 7))
	if *a != *b {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
	c := mustRun(t, waypointConfig(cluster.MOBIC, 150, 8))
	if a.Metrics.CHChanges == c.Metrics.CHChanges && a.Metrics.Deliveries == c.Metrics.Deliveries {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestStaticTopologyStabilizes(t *testing.T) {
	area := geom.Square(670)
	for _, alg := range []cluster.Algorithm{cluster.LCC, cluster.MOBIC, cluster.LowestID} {
		cfg := Config{
			N:         40,
			Area:      area,
			Duration:  120,
			Seed:      3,
			Algorithm: alg,
			Mobility:  &mobility.Static{Area: area},
			TxRange:   200,
			// Count only maintenance-phase events: formation finishes
			// within a few beacon rounds.
			Warmup: 30,
		}
		res := mustRun(t, cfg)
		if res.Metrics.CHChanges != 0 {
			t.Errorf("%s: static topology had %d CH changes after warmup", alg.Name, res.Metrics.CHChanges)
		}
		if res.Metrics.MembershipChanges != 0 {
			t.Errorf("%s: static topology had %d membership changes after warmup", alg.Name, res.Metrics.MembershipChanges)
		}
	}
}

func TestStaticTopologySatisfiesTheorem1(t *testing.T) {
	area := geom.Square(670)
	for _, alg := range []cluster.Algorithm{cluster.LCC, cluster.MOBIC} {
		for seed := uint64(1); seed <= 5; seed++ {
			cfg := Config{
				N:         50,
				Area:      area,
				Duration:  60,
				Seed:      seed,
				Algorithm: alg,
				Mobility:  &mobility.Static{Area: area},
				TxRange:   150,
			}
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			snap := net.Snapshot()
			topo := net.Topology()
			for i, s := range snap {
				switch s.Role {
				case cluster.RoleUndecided:
					t.Errorf("%s seed %d: node %d undecided at end", alg.Name, seed, i)
				case cluster.RoleHead:
					for j, o := range snap {
						if i != j && o.Role == cluster.RoleHead && topo.Adjacent(int32(i), int32(j)) {
							t.Errorf("%s seed %d: heads %d,%d in range (Theorem 1)", alg.Name, seed, i, j)
						}
					}
				case cluster.RoleMember:
					if s.Head < 0 || snap[s.Head].Role != cluster.RoleHead {
						t.Errorf("%s seed %d: member %d has non-head head %d", alg.Name, seed, i, s.Head)
					} else if !topo.Adjacent(int32(i), s.Head) {
						t.Errorf("%s seed %d: member %d out of range of head %d", alg.Name, seed, i, s.Head)
					}
				}
			}
		}
	}
}

func TestClusterDiameterAtMostTwoHops(t *testing.T) {
	area := geom.Square(670)
	cfg := Config{
		N:         50,
		Area:      area,
		Duration:  60,
		Seed:      11,
		Algorithm: cluster.LCC,
		Mobility:  &mobility.Static{Area: area},
		TxRange:   180,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	topo := net.Topology()
	for head, members := range net.Clusters() {
		if head == cluster.NoHead {
			t.Errorf("unaffiliated nodes at end: %v", members)
			continue
		}
		if d := topo.SubgraphDiameter(members); d < 0 || d > 2 {
			t.Errorf("cluster %d has diameter %d, want <= 2 (Theorem 1)", head, d)
		}
	}
}

func TestStaticMobilityMetricIsZero(t *testing.T) {
	area := geom.Square(300)
	cfg := Config{
		N:         20,
		Area:      area,
		Duration:  60,
		Seed:      5,
		Algorithm: cluster.MOBIC,
		Mobility:  &mobility.Static{Area: area},
		TxRange:   150,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range net.Snapshot() {
		if s.M != 0 {
			t.Errorf("node %d: M = %v on a static topology, want 0", s.ID, s.M)
		}
	}
}

func TestMovingNodesProduceChangesAndPositiveM(t *testing.T) {
	net, err := New(waypointConfig(cluster.MOBIC, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CHChanges == 0 {
		t.Error("mobile scenario produced zero CH changes")
	}
	anyM := false
	for _, s := range net.Snapshot() {
		if s.M > 0 {
			anyM = true
			break
		}
	}
	if !anyM {
		t.Error("no node ever measured positive aggregate mobility")
	}
}

func TestMOBICBeatsLCCAtHighTxRange(t *testing.T) {
	// The paper's headline claim at Tx=250 (Figure 3). Seeded and
	// deterministic; the margin is large (~30%), so three seeds suffice.
	var lcc, mobic int
	for seed := uint64(1); seed <= 3; seed++ {
		cfgL := waypointConfig(cluster.LCC, 250, seed)
		cfgL.Duration = 900
		cfgM := waypointConfig(cluster.MOBIC, 250, seed)
		cfgM.Duration = 900
		lcc += mustRun(t, cfgL).Metrics.CHChanges
		mobic += mustRun(t, cfgM).Metrics.CHChanges
	}
	if mobic >= lcc {
		t.Errorf("MOBIC (%d) should beat LCC (%d) at Tx=250", mobic, lcc)
	}
}

func TestGatewayDetection(t *testing.T) {
	// Fixed line topology: 0 -- 1 -- 2 with range covering only adjacent
	// pairs. Lowest-ID: 0 heads {0,1}; 2 heads itself; 1 hears two heads.
	area := geom.NewRect(300, 10)
	cfg := Config{
		N:         3,
		Area:      area,
		Duration:  30,
		Seed:      1,
		Algorithm: cluster.LCC,
		Mobility:  &lineMobility{spacing: 100, y: 5},
		TxRange:   120,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	snap := net.Snapshot()
	if snap[0].Role != cluster.RoleHead {
		t.Errorf("node 0 role = %v, want head", snap[0].Role)
	}
	if snap[1].Role != cluster.RoleMember || snap[1].Head != 0 {
		t.Errorf("node 1 = %v head %d, want member of 0", snap[1].Role, snap[1].Head)
	}
	if snap[2].Role != cluster.RoleHead {
		t.Errorf("node 2 role = %v, want head", snap[2].Role)
	}
	if !snap[1].Gateway {
		t.Error("node 1 hears heads 0 and 2: should be a gateway")
	}
	if snap[0].Gateway || snap[2].Gateway {
		t.Error("heads must not be gateways")
	}
}

// lineMobility pins n nodes on a horizontal line with fixed spacing.
type lineMobility struct {
	spacing float64
	y       float64
}

func (m *lineMobility) Name() string { return "line" }

func (m *lineMobility) Generate(n int, _ float64, _ *sim.Streams) ([]*mobility.Trajectory, error) {
	out := make([]*mobility.Trajectory, n)
	for i := range out {
		out[i] = mobility.StaticTrajectory(geom.Point{X: float64(i) * m.spacing, Y: m.y})
	}
	return out, nil
}

func TestLossModelReducesDeliveries(t *testing.T) {
	base := waypointConfig(cluster.MOBIC, 150, 4)
	clean := mustRun(t, base)

	lossy := waypointConfig(cluster.MOBIC, 150, 4)
	lossRng := rand.New(rand.NewPCG(9, 9))
	um, err := channel.NewUniformLoss(0.3, lossRng)
	if err != nil {
		t.Fatal(err)
	}
	lossy.Loss = um
	withLoss := mustRun(t, lossy)

	if withLoss.Metrics.Drops == 0 {
		t.Error("loss model recorded no drops")
	}
	if withLoss.Metrics.Deliveries >= clean.Metrics.Deliveries {
		t.Errorf("deliveries with loss (%d) should be below clean (%d)",
			withLoss.Metrics.Deliveries, clean.Metrics.Deliveries)
	}
	// The protocol must survive: clustering still happens.
	if withLoss.FinalHeads == 0 {
		t.Error("no heads formed under loss")
	}
}

func TestShadowingPropagationRuns(t *testing.T) {
	cfg := waypointConfig(cluster.MOBIC, 150, 6)
	cfg.Propagation = radio.NewShadowing(2.7, 4, rand.New(rand.NewPCG(3, 3)))
	cfg.Duration = 120
	res := mustRun(t, cfg)
	if res.Metrics.Deliveries == 0 {
		t.Error("shadowing run delivered nothing")
	}
}

func TestBruteForceMatchesGrid(t *testing.T) {
	a := waypointConfig(cluster.MOBIC, 150, 12)
	a.Duration = 120
	b := a
	b.ForceBruteForce = true
	ra, rb := mustRun(t, a), mustRun(t, b)
	if ra.Metrics != rb.Metrics {
		t.Errorf("grid path and brute force disagree:\n%+v\n%+v", ra.Metrics, rb.Metrics)
	}
}

func TestTraceRecordsEvents(t *testing.T) {
	cfg := waypointConfig(cluster.MOBIC, 150, 5)
	cfg.Duration = 60
	log := trace.New(100000)
	tapped := 0
	cfg.Observer = func(ev trace.Event) {
		log.Record(ev)
		tapped++
	}
	res := mustRun(t, cfg)
	if got := log.CountKind(trace.KindBroadcast); got == 0 {
		t.Error("no broadcasts traced")
	}
	if got := log.CountKind(trace.KindDeliver); got == 0 {
		t.Error("no deliveries traced")
	}
	if res.Metrics.CHChanges > 0 && log.CountKind(trace.KindRoleChange) == 0 {
		t.Error("role changes occurred but were not traced")
	}
	if got := uint64(log.Len()) + log.Dropped(); got != uint64(tapped) {
		t.Errorf("ring took %d events, the chained tap saw %d", got, tapped)
	}
}

func TestMaxDegreeAlgorithmRuns(t *testing.T) {
	res := mustRun(t, waypointConfig(cluster.MaxConnectivity, 150, 5))
	if res.Metrics.CHChanges == 0 {
		t.Error("max-degree on mobile scenario should see changes")
	}
	if res.Algorithm != "max-degree" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
}

func TestDCAWithGeneratedWeights(t *testing.T) {
	cfg := waypointConfig(cluster.DCA, 150, 5)
	cfg.Duration = 120
	res := mustRun(t, cfg)
	if res.FinalHeads == 0 {
		t.Error("DCA formed no clusters")
	}
}

func TestDCAWithExplicitWeights(t *testing.T) {
	cfg := waypointConfig(cluster.DCA, 150, 5)
	cfg.Duration = 60
	w := make([]float64, cfg.N)
	for i := range w {
		w[i] = float64(cfg.N - i) // reversed: highest ID has lowest weight
	}
	cfg.CustomWeights = w
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveBIProducesMoreBeaconsWhenMobile(t *testing.T) {
	mk := func(model mobility.Model) uint64 {
		area := geom.Square(400)
		cfg := Config{
			N:         20,
			Area:      area,
			Duration:  300,
			Seed:      4,
			Algorithm: cluster.MOBIC,
			Mobility:  model,
			TxRange:   150,
			Adaptive:  &AdaptiveBI{Min: 0.5, Max: 4, MRef: 2},
			// TimeoutPeriod must cover the slowest beacon rate.
			BroadcastInterval: 0.5,
			TimeoutPeriod:     6,
		}
		return mustRun(t, cfg).Metrics.Broadcasts
	}
	area := geom.Square(400)
	static := mk(&mobility.Static{Area: area})
	mobile := mk(&mobility.RandomWaypoint{Area: area, MaxSpeed: 25})
	if mobile <= static {
		t.Errorf("adaptive BI: mobile scenario sent %d beacons, static %d; want more when mobile",
			mobile, static)
	}
}

func TestRunUntilInterleaving(t *testing.T) {
	net, err := New(waypointConfig(cluster.MOBIC, 150, 3))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(50)
	if net.Now() != 50 {
		t.Errorf("Now = %v, want 50", net.Now())
	}
	mid := net.Snapshot()
	if len(mid) != 50 {
		t.Fatalf("snapshot size = %d", len(mid))
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Duration != 300 {
		t.Errorf("final duration = %v, want 300", res.Metrics.Duration)
	}
}

func TestLargeNetworkScales(t *testing.T) {
	if testing.Short() {
		t.Skip("500-node run")
	}
	// 10x the paper's node count at the same density: the spatial index
	// keeps this tractable and every invariant still holds.
	area := geom.Square(2120) // ~670 * sqrt(10)
	cfg := Config{
		N:         500,
		Area:      area,
		Duration:  120,
		Seed:      1,
		Algorithm: cluster.MOBIC,
		Mobility:  &mobility.RandomWaypoint{Area: area, MaxSpeed: 20},
		TxRange:   250,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalHeads < 10 {
		t.Errorf("500-node network formed only %d clusters", res.FinalHeads)
	}
	if res.Metrics.Deliveries == 0 {
		t.Error("no deliveries at scale")
	}
}

func TestEventsFiredAccounting(t *testing.T) {
	cfg := waypointConfig(cluster.MOBIC, 100, 1)
	cfg.Duration = 100
	res := mustRun(t, cfg)
	// 50 nodes beaconing every 2 s for 100 s = ~2500 ticks plus sampler.
	if res.EventsFired < 2000 || res.EventsFired > 4000 {
		t.Errorf("EventsFired = %d, expected ~2500", res.EventsFired)
	}
}

func TestHelloCollisions(t *testing.T) {
	clean := waypointConfig(cluster.MOBIC, 250, 8)
	colliding := clean
	colliding.HelloCollisions = true

	resClean := mustRun(t, clean)
	net, err := New(colliding)
	if err != nil {
		t.Fatal(err)
	}
	resCol, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resClean.Metrics.Collisions != 0 {
		t.Errorf("collision model off but %d collisions counted", resClean.Metrics.Collisions)
	}
	if resCol.Metrics.Collisions == 0 {
		t.Error("collision model on but no collisions at Tx=250 with 50 nodes")
	}
	if resCol.Metrics.Deliveries >= resClean.Metrics.Deliveries {
		t.Errorf("collisions should reduce deliveries: %d vs %d",
			resCol.Metrics.Deliveries, resClean.Metrics.Deliveries)
	}
	// The protocol must still function.
	if resCol.FinalHeads == 0 {
		t.Error("no clusters formed under collisions")
	}
}

func TestHelloCollisionsDeterministic(t *testing.T) {
	cfg := waypointConfig(cluster.MOBIC, 200, 4)
	cfg.Duration = 120
	cfg.HelloCollisions = true
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if *a != *b {
		t.Errorf("collision model broke determinism:\n%+v\n%+v", a, b)
	}
}

func TestHelloAirtimeValidation(t *testing.T) {
	cfg := waypointConfig(cluster.MOBIC, 150, 1)
	cfg.HelloAirtime = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative airtime should error")
	}
	cfg.HelloAirtime = 5 // >= BI/2
	if _, err := New(cfg); err == nil {
		t.Error("huge airtime should error")
	}
}

func TestOracleWeightKind(t *testing.T) {
	oracle, err := cluster.ByName("mobic-oracle")
	if err != nil {
		t.Fatal(err)
	}
	// Static topology: zero range rates, so the oracle behaves like
	// Lowest-ID ties and must still satisfy Theorem 1 with no churn.
	area := geom.Square(500)
	cfg := Config{
		N:         30,
		Area:      area,
		Duration:  60,
		Seed:      2,
		Algorithm: oracle,
		Mobility:  &mobility.Static{Area: area},
		TxRange:   180,
		Warmup:    30,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CHChanges != 0 {
		t.Errorf("static oracle run churned: %d", res.Metrics.CHChanges)
	}
	if v := net.Theorem1Violations(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}

	// Moving scenario must also run and produce churn.
	mres := mustRun(t, waypointConfig(oracle, 150, 3))
	if mres.Metrics.CHChanges == 0 {
		t.Error("mobile oracle run had no changes")
	}
}

func TestTopologyHealthMetrics(t *testing.T) {
	// Low Tx: many components; high Tx: nearly one.
	sparse := mustRun(t, waypointConfig(cluster.MOBIC, 30, 2))
	dense := mustRun(t, waypointConfig(cluster.MOBIC, 250, 2))
	if sparse.Metrics.AvgComponents <= dense.Metrics.AvgComponents {
		t.Errorf("components: sparse %v <= dense %v", sparse.Metrics.AvgComponents, dense.Metrics.AvgComponents)
	}
	if dense.Metrics.AvgLargestComponentFrac < 0.9 {
		t.Errorf("dense largest-component fraction = %v, want ~1", dense.Metrics.AvgLargestComponentFrac)
	}
	if sparse.Metrics.AvgLargestComponentFrac >= dense.Metrics.AvgLargestComponentFrac {
		t.Error("sparse network should have a smaller largest component")
	}
}

func TestHelloByteOverhead(t *testing.T) {
	// The paper's footnote 7: MOBIC's hello grows by exactly 8 bytes.
	lcc := mustRun(t, waypointConfig(cluster.LCC, 150, 2))
	mob := mustRun(t, waypointConfig(cluster.MOBIC, 150, 2))
	if lcc.Metrics.Broadcasts != mob.Metrics.Broadcasts {
		t.Fatalf("broadcast counts differ: %d vs %d", lcc.Metrics.Broadcasts, mob.Metrics.Broadcasts)
	}
	perBeacon := float64(mob.Metrics.BytesSent-lcc.Metrics.BytesSent) / float64(mob.Metrics.Broadcasts)
	if perBeacon != 8 {
		t.Errorf("MOBIC per-beacon overhead = %v bytes, want exactly 8 (paper footnote 7)", perBeacon)
	}
}

func TestTimelinePlumbing(t *testing.T) {
	cfg := waypointConfig(cluster.MOBIC, 150, 3)
	cfg.Duration = 120
	cfg.TimelineWindow = 30
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	windows, size := net.Timeline()
	if size != 30 {
		t.Errorf("window size = %v", size)
	}
	total := 0
	for _, c := range windows {
		total += c
	}
	if total != res.Metrics.CHChanges {
		t.Errorf("timeline sum %d != total CH changes %d (warmup 0)", total, res.Metrics.CHChanges)
	}
}

func TestHistoryVariantRuns(t *testing.T) {
	hist, err := cluster.ByName("mobic-history")
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, waypointConfig(hist, 150, 3))
	if res.Algorithm != "mobic-history" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
}

// TestSharedTrajectoriesConcurrentRuns runs two networks at once over one
// FixedTrajectories, as a sweep's workers do with a parsed ns-2 scenario.
// Each run reads positions through its own cursors, so under -race neither
// run's reads race the other's, and each matches the same run made alone.
// The oracle weight reads positions half a second back, which drives the
// cursor's backward fallback.
func TestSharedTrajectoriesConcurrentRuns(t *testing.T) {
	oracle, err := cluster.ByName("mobic-oracle")
	if err != nil {
		t.Fatal(err)
	}
	base := waypointConfig(cluster.MOBIC, 150, 4)
	base.Duration = 120
	trajs, err := base.Mobility.Generate(base.N, base.Duration, sim.NewStreams(base.Seed))
	if err != nil {
		t.Fatal(err)
	}
	base.Mobility = &mobility.FixedTrajectories{Trajectories: trajs}
	cfgs := []Config{base, base}
	cfgs[1].Algorithm, cfgs[1].Seed = oracle, 5

	alone := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		alone[i] = mustRun(t, cfg)
	}
	together := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net, err := New(cfg)
			if err == nil {
				together[i], err = net.Run()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(alone[i], together[i]) {
			t.Errorf("run %d differs when run beside another:\n  alone:    %+v\n  together: %+v",
				i, alone[i], together[i])
		}
	}
}
