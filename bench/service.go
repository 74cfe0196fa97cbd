package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mobic/internal/cache"
	"mobic/internal/cluster"
	"mobic/internal/dispatch"
	"mobic/internal/experiment"
	"mobic/internal/obs"
	"mobic/internal/scenario"
	"mobic/internal/service"
)

// Service-level objectives: a job whose submit-to-result latency exceeds
// its workload's SLO does not count toward goodput.
const (
	svcMixedSLO  = 500 * time.Millisecond
	clusterSLO   = time.Second
	drainTimeout = 60 * time.Second
)

// maxLate bounds how late, at p99, the open-loop generator may send. Later
// than that, the offered load was not the intended one and the run is
// invalid rather than slow. The generator shares the two CPUs with the
// daemon's simulation workers, and Go preempts a running goroutine only
// every 10 ms, so a few tens of milliseconds of lateness are normal here.
const maxLate = 150 * time.Millisecond

// server is one in-process HTTP listener on loopback.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// newClient returns a client that holds at most one connection, so each
// load-generating goroutine is exactly one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// waitReady polls GET /readyz until it answers 200.
func waitReady(c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (last error: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// postJSON posts body and decodes a 2xx answer into out. Any other status,
// a 429 included, is an error: the op failed.
func postJSON(c *http.Client, url string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getStatus(c *http.Client, url string) (*service.Status, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	var st service.Status
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}

// sweepSpec is a custom sweep of 50 nodes for 120 simulated seconds: one
// cell per transmission range, one replication.
func sweepSpec(baseSeed uint64, alg string, txs ...float64) service.JobSpec {
	return service.JobSpec{
		Seeds:    1,
		BaseSeed: baseSeed,
		Sweep: &service.SweepSpec{
			Scenario:   service.ScenarioSpec{N: 50, Duration: 120},
			Algorithms: []string{alg},
			TxRanges:   txs,
		},
	}
}

// recompute runs a sweep spec through experiment directly, in the shape
// the service returns it (per-cell stats without the raw snapshots).
func recompute(ctx context.Context, spec service.JobSpec) ([]byte, error) {
	sc := spec.Sweep.Scenario
	var cells []experiment.Cell
	for _, name := range spec.Sweep.Algorithms {
		alg, err := cluster.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, tx := range spec.Sweep.TxRanges {
			p := scenario.Base(tx)
			p.N, p.Duration = sc.N, sc.Duration
			cells = append(cells, experiment.Cell{Params: p, Algorithm: alg})
		}
	}
	stats, err := experiment.Runner{Seeds: spec.Seeds, BaseSeed: spec.BaseSeed, Workers: 1}.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i := range stats {
		stats[i].Raw = nil
	}
	return json.Marshal(stats)
}

// outcome is one job as the load generator saw it.
type outcome struct {
	spec service.JobSpec
	// ref is, for a cluster-2w repeat, the index among its client's
	// submissions of the job whose output this one must equal; else -1.
	ref  int
	hot  int // svc-mixed: hot-set index, or -1
	id   string
	due  time.Time
	done time.Time
	hit  bool // answered terminal on submit
	st   *service.Status
	err  error
}

func (o *outcome) ok() bool {
	return o.err == nil && o.st != nil && o.st.State == service.StateSucceeded
}

func (o *outcome) latencyMs() float64 { return float64(o.done.Sub(o.due).Nanoseconds()) / 1e6 }

func outputBytes(st *service.Status) []byte {
	data, _ := json.Marshal(st.Output) // Output is plain data; Marshal cannot fail
	return data
}

// checkOutcomes checks every job: it must have succeeded, a repeat's output
// must be byte-equal to its reference, and one in 20 unique jobs is
// recomputed through experiment and compared cell by cell.
func checkOutcomes(ctx context.Context, outs []*outcome, ref func(o *outcome) []byte, m *measurement) {
	unique := 0
	for _, o := range outs {
		switch {
		case o.err != nil:
			m.fail("job %s: %v", o.id, o.err)
			continue
		case !o.ok():
			m.fail("job %s ended %s: %s", o.id, o.st.State, o.st.Error)
			continue
		}
		if want := ref(o); want != nil {
			if !bytes.Equal(outputBytes(o.st), want) {
				m.fail("job %s: repeat output differs from the original", o.id)
			}
			continue
		}
		unique++
		if unique%20 != 1 {
			continue
		}
		want, err := recompute(ctx, o.spec)
		if err != nil {
			m.fail("recomputing job %s: %v", o.id, err)
			continue
		}
		if got, _ := json.Marshal(o.st.Cells); !bytes.Equal(got, want) {
			m.fail("job %s: cells differ from a direct experiment run", o.id)
		}
	}
}

// latencyMetrics fills the end-to-end latency metrics from outcomes.
func latencyMetrics(outs []*outcome, start time.Time, slo time.Duration, m *measurement) {
	var lat, hitLat []float64
	var last time.Time
	good := 0
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		l := o.latencyMs()
		lat = append(lat, l)
		if o.hit {
			hitLat = append(hitLat, l)
		}
		if l <= float64(slo.Milliseconds()) {
			good++
		}
		if o.done.After(last) {
			last = o.done
		}
	}
	wall := last.Sub(start).Seconds()
	m.attempted = len(outs)
	m.e2e["wall_s"] = wall
	m.e2e["latency_p50_ms"] = quantile(lat, 0.5)
	m.e2e["latency_p90_ms"] = quantile(lat, 0.9)
	m.e2e["goodput_ops_s"] = ratio(float64(good), wall)
	m.layers["cache.hit_latency_p50_ms"] = quantile(hitLat, 0.5)
}

// serviceLayers fills the per-layer metrics every service workload shares:
// handler route times, queueing and execution from the job statuses, the
// journal's fsyncs, and the executor's busy time.
func serviceLayers(s *trial, front *httpProbe, wal *walProbe, bytes0 int64, syncs0 int, outs []*outcome, m *measurement) {
	calls := front.since(s.start)
	for _, r := range httpRoutes {
		var ms []float64
		for _, c := range calls {
			if c.route == r {
				ms = append(ms, c.ms())
			}
		}
		m.layers["http."+r+".count"] = float64(len(ms))
		m.layers["http."+r+".busy_ms_p50"] = quantile(ms, 0.5)
	}
	var wait, run []float64
	for _, o := range outs {
		if !o.ok() || o.hit || o.st.StartedAt == nil || o.st.FinishedAt == nil {
			continue
		}
		wait = append(wait, float64(o.st.StartedAt.Sub(o.st.CreatedAt).Nanoseconds())/1e6)
		run = append(run, float64(o.st.FinishedAt.Sub(*o.st.StartedAt).Nanoseconds())/1e6)
		job := s.tr.add("job", 0, o.id, o.due, o.done)
		s.tr.add("queue", job, o.id, o.st.CreatedAt, *o.st.StartedAt)
		s.tr.add("exec", job, o.id, *o.st.StartedAt, *o.st.FinishedAt)
	}
	m.layers["queue.wait_ms_p50"] = quantile(wait, 0.5)
	m.layers["queue.wait_ms_p99"] = quantile(wait, 0.99)
	m.layers["exec.run_ms_p50"] = quantile(run, 0.5)
	m.layers["exec.job_busy_s"] = sum(s.rec.spanSeconds(obs.SpanJob, s.start.UnixNano()))
	b, _ := wal.snapshot()
	syncMs := wal.syncsSince(syncs0)
	m.layers["journal.syncs_per_job"] = ratio(float64(len(syncMs)), float64(len(outs)))
	m.layers["journal.sync_ms_p50"] = quantile(syncMs, 0.5)
	m.layers["journal.sync_ms_p99"] = quantile(syncMs, 0.99)
	m.layers["journal.write_bytes"] = float64(b - bytes0)
}

// daemon is one durable service behind a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *server
	http *httpProbe
	repl *transportProbe
}

// openDaemon opens a durable service on dir with a memory result cache and
// two job workers. The traced run wraps its journal and handler.
func openDaemon(s *trial, dir string, wal *walProbe, name string, replicate bool) (*daemon, error) {
	var rec, cacheRec obs.Recorder
	if s.opts.trace {
		rec = s.rec
		if !replicate {
			// The cache metrics are the front cache's: this daemon's when
			// it serves clients, the coordinator's when it is a worker.
			cacheRec = s.rec
		}
	}
	c, err := cache.Open(cache.Config{Obs: cacheRec})
	if err != nil {
		return nil, err
	}
	cfg := service.Config{
		DataDir:   dir,
		Workers:   2,
		Cache:     c,
		Obs:       rec,
		Replicate: replicate,
		Runner:    experiment.Runner{Mutate: s.mutate},
	}
	d := &daemon{
		http: &httpProbe{name: name, tr: s.tr},
		repl: &transportProbe{base: http.DefaultTransport, tr: s.tr, name: "repl"},
	}
	if s.opts.trace {
		cfg.WrapWAL = wal.wrap
		cfg.ReplicaClient = &http.Client{Timeout: 2 * time.Second, Transport: d.repl}
	}
	if d.svc, err = service.Open(cfg); err != nil {
		return nil, err
	}
	d.svc.Start()
	var h http.Handler = service.NewHandler(d.svc)
	if s.opts.trace {
		h = d.http.wrap(h)
	}
	if d.srv, err = serve(h); err != nil {
		_ = d.svc.Shutdown(context.Background()) // already failing; report the listen error
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() error {
	d.srv.close()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return d.svc.Shutdown(ctx)
}

// svcSize is the svc-mixed load: open-loop arrivals at a fixed rate.
type svcSize struct {
	rate      float64 // arrivals per second
	warmup    time.Duration
	walJobs   int
	hotSet    int
	setupReps int
}

func svcSizeFor(opts options) svcSize {
	if opts.tiny {
		return svcSize{rate: 20, warmup: 500 * time.Millisecond, walJobs: 50, hotSet: 4, setupReps: 1}
	}
	return svcSize{rate: 20, warmup: 3 * time.Second, walJobs: 1000, hotSet: 32, setupReps: 9}
}

// seedWAL fills dir's journal with n finished jobs, run through a stub
// executor so seeding costs no simulation.
func seedWAL(dir string, n int) error {
	stub := &service.Output{Result: &experiment.Result{ID: "sweep", Title: "stub"}}
	svc, err := service.Open(service.Config{
		DataDir:       dir,
		QueueCapacity: n,
		Execute: func(context.Context, service.JobSpec, experiment.Runner, func(int, int)) (*service.Output, error) {
			return stub, nil
		},
	})
	if err != nil {
		return err
	}
	svc.Start()
	for i := 0; i < n; i++ {
		if _, err := svc.Submit(sweepSpec(1<<40+uint64(i), "mobic", 150)); err != nil {
			_ = svc.Shutdown(context.Background()) // already failing; report the submit error
			return err
		}
	}
	// Shutdown drains: every queued job finishes and is journaled.
	return svc.Shutdown(context.Background())
}

// arrival is one open-loop request: a single job or a batch.
type arrival struct {
	at    time.Duration
	specs []service.JobSpec
	hot   int // hot-set index of a repeat, or -1
}

// mixedSchedule draws n arrivals over window: Poisson arrival times
// (uniform order statistics, so the count is exactly n) and an exact
// 65/30/5 mix of unique single-cell sweeps, hot-set repeats and 4-spec
// batches, shuffled by the seed.
func mixedSchedule(rng *rand.Rand, n int, window time.Duration, hot []service.JobSpec, unique func() service.JobSpec) []arrival {
	const single, repeat, batch = 0, 1, 2
	kinds := make([]int, n)
	nHot := int(math.Round(0.30 * float64(n)))
	nBatch := int(math.Round(0.05 * float64(n)))
	for i := range kinds {
		switch {
		case i < nHot:
			kinds[i] = repeat
		case i < nHot+nBatch:
			kinds[i] = batch
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	out := make([]arrival, n)
	for i, k := range kinds {
		a := arrival{at: at[i], hot: -1}
		switch k {
		case single:
			a.specs = []service.JobSpec{unique()}
		case repeat:
			a.hot = rng.IntN(len(hot))
			a.specs = []service.JobSpec{hot[a.hot]}
		case batch:
			a.specs = []service.JobSpec{unique(), unique(), unique(), unique()}
		}
		out[i] = a
	}
	return out
}

// poller watches submitted jobs over one connection, polling each pending
// job's status round-robin until it is terminal.
type poller struct {
	c    *http.Client
	url  string
	mu   sync.Mutex
	in   []*outcome
	wake chan struct{}
}

func (p *poller) add(o *outcome) {
	p.mu.Lock()
	p.in = append(p.in, o)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// pollRound is the minimum time between two polls of one job: it bounds the
// poller's own load on the daemon at the cost of that much resolution.
const pollRound = 5 * time.Millisecond

// run polls until stop is closed and nothing is pending, or until deadline,
// when every job still pending is failed as timed out.
func (p *poller) run(stop <-chan struct{}, deadline time.Time) {
	var pending []*outcome
	stopped := false
	for {
		p.mu.Lock()
		pending = append(pending, p.in...)
		p.in = nil
		p.mu.Unlock()
		if len(pending) == 0 {
			if stopped {
				return
			}
			select {
			case <-p.wake:
			case <-stop:
				stopped = true
			}
			continue
		}
		if time.Now().After(deadline) {
			for _, o := range pending {
				o.err = errors.New("timed out waiting for a terminal state")
			}
			return
		}
		round := time.Now()
		kept := pending[:0]
		for _, o := range pending {
			st, err := getStatus(p.c, p.url+"/v1/jobs/"+o.id)
			switch {
			case err != nil:
				o.err = err
			case st.State.Terminal():
				o.st, o.done = st, time.Now()
			default:
				kept = append(kept, o)
			}
		}
		pending = kept
		select {
		case <-stop:
			stopped = true
		default:
		}
		time.Sleep(time.Until(round.Add(pollRound)))
	}
}

// loadResult is one open-loop phase's outcomes and generator lateness.
type loadResult struct {
	outs   []*outcome
	lateMs []float64
}

// runOpenLoop submits sched from one connection, each request at its due
// time, while another connection polls the accepted jobs to completion.
func runOpenLoop(url string, start time.Time, sched []arrival) loadResult {
	sub, pc := newClient(), newClient()
	defer closeClient(sub)
	defer closeClient(pc)
	p := &poller{c: pc, url: url, wake: make(chan struct{}, 1)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		end := start
		if len(sched) > 0 {
			end = start.Add(sched[len(sched)-1].at)
		}
		p.run(stop, end.Add(drainTimeout))
	}()

	var res loadResult
	for _, a := range sched {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		res.lateMs = append(res.lateMs, float64(time.Since(due).Nanoseconds())/1e6)
		var sts []service.Status
		var err error
		if len(a.specs) == 1 {
			var st service.Status
			err = postJSON(sub, url+"/v1/jobs", a.specs[0], &st)
			sts = []service.Status{st}
		} else {
			var body struct {
				Jobs []service.Status `json:"jobs"`
			}
			err = postJSON(sub, url+"/v1/jobs:batch", map[string]any{"jobs": a.specs}, &body)
			sts = body.Jobs
		}
		now := time.Now()
		for i, spec := range a.specs {
			o := &outcome{spec: spec, ref: -1, hot: a.hot, due: due}
			res.outs = append(res.outs, o)
			switch {
			case err != nil:
				o.err = err
			case i >= len(sts):
				o.err = fmt.Errorf("batch answered %d of %d jobs", len(sts), len(a.specs))
			case sts[i].State.Terminal():
				st := sts[i]
				o.id, o.st, o.done, o.hit = st.ID, &st, now, true
			default:
				o.id = sts[i].ID
				p.add(o)
			}
		}
	}
	close(stop)
	wg.Wait()
	return res
}

// runSvcMixed drives one durable daemon with an open-loop mix of cache
// misses, cache hits and atomic batches.
func runSvcMixed(ctx context.Context, s *trial) (*measurement, error) {
	m := newMeasurement()
	size := svcSizeFor(s.opts)
	dir, err := os.MkdirTemp(s.opts.outDir, "svc-mixed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := seedWAL(dir, size.walJobs); err != nil {
		return nil, fmt.Errorf("seeding the journal: %w", err)
	}

	wal := &walProbe{}
	var d *daemon
	probe := newClient()
	setup, err := medianSetup(size.setupReps, func() (time.Duration, error) {
		if d != nil {
			if err := d.close(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = openDaemon(s, dir, wal, "http", false); err != nil {
			return 0, err
		}
		if err := waitReady(probe, d.srv.url); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	})
	closeClient(probe)
	if d != nil {
		defer d.close()
	}
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = setup

	rng := rand.New(rand.NewPCG(s.opts.seed, 0x5e1ec7))
	next := uint64(0)
	unique := func() service.JobSpec {
		next++
		algs := []string{"mobic", "lcc"}
		return sweepSpec(1_000_000*(s.opts.seed+1)+next, algs[rng.IntN(len(algs))], []float64{100, 150, 200, 250}[rng.IntN(4)])
	}
	hot := make([]service.JobSpec, size.hotSet)
	for i := range hot {
		hot[i] = sweepSpec(1_000_000*(s.opts.seed+1)+900_000+uint64(i), "mobic", 150)
	}

	// Warm-up: the hot set first, so its misses fill the cache, then unique
	// misses, evenly spaced at the measured rate. The phase drains before
	// measuring starts.
	var warm []arrival
	for i := 0; i < max(int(size.rate*size.warmup.Seconds()), len(hot)); i++ {
		a := arrival{at: time.Duration(float64(i) / size.rate * float64(time.Second)), hot: -1}
		if i < len(hot) {
			a.hot, a.specs = i, []service.JobSpec{hot[i]}
		} else {
			a.specs = []service.JobSpec{unique()}
		}
		warm = append(warm, a)
	}
	warmRes := runOpenLoop(d.srv.url, time.Now(), warm)
	hotRef := make([][]byte, len(hot))
	for _, o := range warmRes.outs {
		if !o.ok() {
			return nil, fmt.Errorf("warm-up job %s failed: %v", o.id, o.err)
		}
		if o.hot >= 0 {
			hotRef[o.hot] = outputBytes(o.st)
		}
	}

	n := int(math.Round(size.rate * s.opts.seconds))
	sched := mixedSchedule(rng, n, time.Duration(s.opts.seconds*float64(time.Second)), hot, unique)
	bytes0, syncs0 := wal.snapshot()
	if err := s.beginMeasure(); err != nil {
		return nil, err
	}
	res := runOpenLoop(d.srv.url, s.start, sched)
	if err := s.endMeasure(m); err != nil {
		return nil, err
	}

	latencyMetrics(res.outs, s.start, svcMixedSLO, m)
	late := quantile(res.lateMs, 0.99)
	if late > float64(maxLate.Milliseconds()) {
		m.fail("invalid run: the generator sent its requests %.0f ms late at p99 (limit %v)", late, maxLate)
	}
	if s.opts.trace {
		serviceLayers(s, d.http, wal, bytes0, syncs0, res.outs, m)
		m.layers["loadgen.late_ms_p99"] = late
	}
	checkOutcomes(ctx, res.outs, func(o *outcome) []byte {
		if o.hot >= 0 {
			return hotRef[o.hot]
		}
		return nil
	}, m)
	return m, nil
}

// clusterSize is the cluster-2w load: two closed-loop clients.
type clusterSize struct {
	// repeatLag is how many submissions back a repeat reaches: far enough
	// that the coordinator's poll loop (1 s) has cached the original.
	repeatLag int
	setupReps int
}

func clusterSizeFor(opts options) clusterSize {
	if opts.tiny {
		return clusterSize{repeatLag: 3, setupReps: 1}
	}
	return clusterSize{repeatLag: 39, setupReps: 9}
}

// rig is a coordinator in front of two durable, replicating workers.
type rig struct {
	workers []*daemon
	coord   *dispatch.Coordinator
	srv     *server
	front   *httpProbe
	peers   *transportProbe
	dirs    []string
}

func openRig(s *trial, wal *walProbe) (*rig, error) {
	r := &rig{front: &httpProbe{name: "http", tr: s.tr}}
	var peers []string
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(s.opts.outDir, "cluster-2w-")
		if err != nil {
			r.close()
			return nil, err
		}
		r.dirs = append(r.dirs, dir)
		w, err := openDaemon(s, dir, wal, fmt.Sprintf("worker%d", i), true)
		if err != nil {
			r.close()
			return nil, err
		}
		r.workers = append(r.workers, w)
		peers = append(peers, w.srv.url)
	}
	var rec obs.Recorder
	if s.opts.trace {
		rec = s.rec
	}
	c, err := cache.Open(cache.Config{Obs: rec})
	if err != nil {
		r.close()
		return nil, err
	}
	cfg := dispatch.Config{Peers: peers, Cache: c, Replicate: true, Obs: rec}
	if s.opts.trace {
		r.peers = &transportProbe{base: http.DefaultTransport, tr: s.tr, name: "peer"}
		cfg.Client = &http.Client{Timeout: 5 * time.Second, Transport: r.peers}
	}
	if r.coord, err = dispatch.New(cfg); err != nil {
		r.close()
		return nil, err
	}
	r.coord.Start()
	var h http.Handler = dispatch.NewHandler(r.coord)
	if s.opts.trace {
		h = r.front.wrap(h)
	}
	if r.srv, err = serve(h); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() error {
	var errs []error
	if r.srv != nil {
		r.srv.close()
	}
	if r.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		errs = append(errs, r.coord.Shutdown(ctx))
		cancel()
	}
	for _, w := range r.workers {
		errs = append(errs, w.close())
	}
	for _, d := range r.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	return errors.Join(errs...)
}

// streamResult reads a job's NDJSON stream to its terminal event.
func streamResult(c *http.Client, url string) (*service.Status, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("stream ended before the result: %w", err)
		}
		var ev service.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, err
		}
		if ev.Type == "result" && ev.Stat != nil {
			return ev.Stat, nil
		}
	}
}

// runCluster drives a coordinator and two workers with two closed-loop
// clients. Each submits a unique two-cell sweep and reads the proxied
// stream to its result; every 4th submission repeats one of its own
// earlier unique specs, which a cache answers.
func runCluster(ctx context.Context, s *trial) (*measurement, error) {
	m := newMeasurement()
	size := clusterSizeFor(s.opts)
	wal := &walProbe{}
	var r *rig
	probe := newClient()
	setup, err := medianSetup(size.setupReps, func() (time.Duration, error) {
		if r != nil {
			if err := r.close(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = openRig(s, wal); err != nil {
			return 0, err
		}
		if err := waitReady(probe, r.srv.url); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	})
	closeClient(probe)
	if r != nil {
		defer r.close()
	}
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = setup

	bytes0, syncs0 := wal.snapshot()
	if err := s.beginMeasure(); err != nil {
		return nil, err
	}
	deadline := s.start.Add(time.Duration(s.opts.seconds * float64(time.Second)))
	perClient := make([][]*outcome, 2)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer closeClient(client)
			for i := 0; time.Now().Before(deadline); i++ {
				o := &outcome{ref: -1, hot: -1}
				if i%4 == 3 && i >= size.repeatLag {
					o.ref = i - size.repeatLag
					o.spec = perClient[c][o.ref].spec
				} else {
					o.spec = sweepSpec(1_000_000*(s.opts.seed+1)+uint64(100_000*c+i), "mobic", 150, 250)
				}
				perClient[c] = append(perClient[c], o)
				o.due = time.Now()
				var st service.Status
				if o.err = postJSON(client, r.srv.url+"/v1/jobs", o.spec, &st); o.err != nil {
					continue
				}
				o.id = st.ID
				if st.State.Terminal() {
					o.st, o.hit = &st, true
				} else {
					o.st, o.err = streamResult(client, r.srv.url+"/v1/jobs/"+st.ID+"/stream")
				}
				o.done = time.Now()
			}
		}(c)
	}
	wg.Wait()
	if err := s.endMeasure(m); err != nil {
		return nil, err
	}

	var outs []*outcome
	refs := map[*outcome]*outcome{}
	for _, sent := range perClient {
		for _, o := range sent {
			if o.ref >= 0 {
				refs[o] = sent[o.ref]
			}
		}
		outs = append(outs, sent...)
	}
	latencyMetrics(outs, s.start, clusterSLO, m)
	if s.opts.trace {
		serviceLayers(s, r.front, wal, bytes0, syncs0, outs, m)
		clusterLayers(s, r, m)
	}
	checkOutcomes(ctx, outs, func(o *outcome) []byte {
		if orig := refs[o]; orig != nil && orig.ok() {
			return outputBytes(orig.st)
		}
		return nil
	}, m)
	return m, nil
}

// clusterLayers fills the coordinator's per-layer metrics: calls to
// workers by kind, the proxy hop's overhead, placement balance and
// replication volume.
func clusterLayers(s *trial, r *rig, m *measurement) {
	calls := r.peers.since(s.start)
	var callMs []float64
	for _, k := range peerKinds {
		n := 0
		for _, c := range calls {
			if c.route == k {
				n++
			}
		}
		m.layers["dispatch.peer_calls."+k] = float64(n)
	}
	for _, c := range calls {
		if c.route != "stream" {
			callMs = append(callMs, c.ms())
		}
	}
	m.layers["dispatch.peer_call_ms_p50"] = quantile(callMs, 0.5)

	workerSubmit := map[string]float64{}
	var placed []float64
	for _, w := range r.workers {
		n := 0
		for _, c := range w.http.since(s.start) {
			if c.route == "submit" {
				workerSubmit[c.job] = c.ms()
				n++
			}
		}
		placed = append(placed, float64(n))
	}
	var overhead []float64
	for _, c := range r.front.since(s.start) {
		if w, ok := workerSubmit[c.job]; ok && c.route == "submit" {
			overhead = append(overhead, c.ms()-w)
		}
	}
	m.layers["dispatch.proxy_overhead_ms_p50"] = quantile(overhead, 0.5)
	if mean := sum(placed) / float64(len(placed)); mean > 0 {
		m.layers["dispatch.placement_skew"] = quantile(placed, 1)/mean - 1
	}
	var batches, replBytes float64
	for _, w := range r.workers {
		for _, c := range w.repl.since(s.start) {
			batches++
			replBytes += float64(c.bytes)
		}
	}
	m.layers["repl.batches"] = batches
	m.layers["repl.bytes"] = replBytes
}
