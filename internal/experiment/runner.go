// Package experiment regenerates every table and figure of the paper's
// evaluation (and the DESIGN.md ablations) from the simulator. Each
// experiment is a named function producing a Result — an X axis plus one
// series per algorithm — which the cmd/experiments tool renders as aligned
// tables, CSV files and ASCII charts, and EXPERIMENTS.md records against the
// paper's published curves.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mobic/internal/cluster"
	"mobic/internal/metrics"
	"mobic/internal/obs"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
	"mobic/internal/stats"
)

// Runner controls replication and parallelism for experiment sweeps.
type Runner struct {
	// Seeds is the number of replications per cell (default 3).
	Seeds int
	// BaseSeed is the first scenario seed; replication i uses BaseSeed+i.
	BaseSeed uint64
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// Progress, when set, is called after each finished replication with
	// the replications done and in total over the whole sweep (a resumed
	// sweep starts at StartCell×Seeds). Calls are serialized and in order.
	Progress func(done, total int)
	// Mutate, when set, adjusts each materialized config before the run
	// (e.g. to override the propagation or loss model).
	Mutate func(*simnet.Config)
	// StartCell skips the first StartCell cells: they are not simulated,
	// and their stats are taken from Resume instead. This is the resume
	// half of checkpoint/restart — a re-run with the same cells and
	// StartCell = number of previously completed cells produces output
	// identical to an uninterrupted run, because each cell's simulation
	// depends only on its own config and seed.
	StartCell int
	// Resume supplies the stats of the skipped prefix; entry i stands in
	// for cells[i] (i < StartCell). Missing entries are zero stats.
	Resume []CellStats
	// Obs receives sweep telemetry (per-cell progress fraction, cells
	// completed/failed/resumed, per-replication wall time) and is injected
	// into every cell's simnet config so engine metrics flow to the same
	// recorder. Defaults to obs.Nop. A cell config that already carries its
	// own recorder keeps it.
	Obs obs.Recorder
	// Checkpoint, when set, is called as the contiguous prefix of
	// completed cells grows: once for each cell index in increasing
	// order, after every replication of that cell (and of all cells
	// before it) has finished. Calls are serialized and made outside the
	// runner's internal lock, so a slow callback — a durable caller's
	// per-cell fsync, say — delays only the single draining worker, not
	// the whole pool; durable callers use it to journal progress.
	Checkpoint func(cell int, stats CellStats)
}

// withDefaults returns a copy with defaults applied.
func (r Runner) withDefaults() Runner {
	if r.Seeds <= 0 {
		r.Seeds = 3
	}
	if r.BaseSeed == 0 {
		r.BaseSeed = 1
	}
	if r.Workers <= 0 {
		r.Workers = runtime.GOMAXPROCS(0)
	}
	if r.Obs == nil {
		r.Obs = obs.Nop{}
	}
	return r
}

// CellStats aggregates one sweep cell (one x value, one algorithm) over the
// replications. The JSON field names are a stable wire format: the service
// API returns CellStats directly, so renaming a tag is a breaking change
// (guarded by the golden-file test in json_test.go).
type CellStats struct {
	// CHChanges is the mean cluster-stability metric CS.
	CHChanges float64 `json:"ch_changes"`
	// CHChangesCI is the 95% confidence half-width over seeds.
	CHChangesCI float64 `json:"ch_changes_ci"`
	// AvgClusters is the mean time-averaged cluster count.
	AvgClusters float64 `json:"avg_clusters"`
	// MembershipChanges is the mean membership-change count.
	MembershipChanges float64 `json:"membership_changes"`
	// MeanResidence is the mean clusterhead tenure in seconds.
	MeanResidence float64 `json:"mean_residence"`
	// Broadcasts is the mean number of hello transmissions.
	Broadcasts float64 `json:"broadcasts"`
	// Raw holds the per-seed metric snapshots for custom projections.
	Raw []metrics.Result `json:"raw,omitempty"`
}

// RunCells executes every (params, algorithm) cell over all seeds, in
// parallel, and aggregates per cell. Results are ordered like the inputs.
// It is the replication pool (see replicate) plus the per-cell aggregate and
// the checkpoint frontier.
//
// Checkpoint/restart: with StartCell > 0 the first StartCell cells are not
// simulated — their stats come from Resume — and Checkpoint (when set)
// reports each newly completed cell of the contiguous prefix, which is what
// lets a durable caller resume an interrupted sweep with identical output.
func (r Runner) RunCells(ctx context.Context, cells []Cell) ([]CellStats, error) {
	r = r.withDefaults()
	if r.StartCell < 0 || r.StartCell > len(cells) {
		return nil, fmt.Errorf("experiment: start cell %d outside [0, %d]", r.StartCell, len(cells))
	}
	out := make([]CellStats, len(cells))
	copy(out[:r.StartCell], r.Resume)
	if r.StartCell > 0 {
		r.Obs.Add(obs.ExpCellsResumed, int64(r.StartCell))
	}
	_, err := replicate(ctx, r, r.StartCell, len(cells), cellConfig(cells), runMetrics,
		func(ci int, reps []metrics.Result) {
			out[ci] = aggregate(reps)
			if r.Checkpoint != nil {
				r.Checkpoint(ci, out[ci])
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runMetrics is RunCells' replication: one plain simulation run.
func runMetrics(ctx context.Context, _ int, cfg simnet.Config) (metrics.Result, error) {
	net, err := simnet.New(cfg)
	if err != nil {
		return metrics.Result{}, err
	}
	res, err := net.RunContext(ctx)
	if err != nil {
		return metrics.Result{}, err
	}
	return res.Metrics, nil
}

// replicate is the one cell × seed replication pool behind every
// experiment. For each cell in [first, n) and each seed BaseSeed+s it
// materializes config(cell, seed), applies r.Mutate, injects r.Obs
// (a config that carries its own recorder keeps it), and runs rep on it,
// r.Workers at a time. Replications are stored by seed index, not
// completion order, so a caller that folds them in seed order gets the
// same floats at any worker count.
//
// Cancellation: when ctx is canceled or times out, in-flight replications
// stop (rep must honour its ctx), queued work is skipped, and replicate
// returns an error wrapping ctx.Err(). The first failed replication cancels
// the rest the same way, and its error is returned.
//
// Progress counts replications over the whole sweep, from first×Seeds to
// n×Seeds. cellDone, when set, receives each cell's replications once they
// and every earlier cell's have finished. Progress and cellDone calls are
// serialized, in order, and made outside the pool's lock by whichever worker
// finds them pending, so a slow callback (a per-cell fsync, say) delays only
// that worker while the rest keep simulating.
func replicate[T any](
	ctx context.Context,
	r Runner,
	first, n int,
	config func(cell int, seed uint64) (simnet.Config, error),
	rep func(ctx context.Context, cell int, cfg simnet.Config) (T, error),
	cellDone func(cell int, reps []T),
) ([][]T, error) {
	r = r.withDefaults()
	type job struct {
		cell, rep int
		seed      uint64
		cfg       simnet.Config
	}
	var jobs []job
	for ci := first; ci < n; ci++ {
		for s := 0; s < r.Seeds; s++ {
			seed := r.BaseSeed + uint64(s)
			cfg, err := config(ci, seed)
			if err != nil {
				return nil, fmt.Errorf("experiment: cell %d: %w", ci, err)
			}
			if r.Mutate != nil {
				r.Mutate(&cfg)
			}
			if cfg.Obs == nil {
				cfg.Obs = r.Obs
			}
			jobs = append(jobs, job{cell: ci, rep: s, seed: seed, cfg: cfg})
		}
	}

	// runCtx aborts the whole sweep on the first failure; the caller's ctx
	// still governs external cancellation.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	instrumented := r.Obs.Enabled()
	results := make([][]T, n)
	counts := make([]int, n)
	for ci := first; ci < n; ci++ {
		results[ci] = make([]T, r.Seeds)
	}
	var (
		mu       sync.Mutex
		firstErr error
		done     = first * r.Seeds
		total    = n * r.Seeds
		frontier = first
		wg       sync.WaitGroup
		// outbox holds the pending Progress and cellDone calls, appended
		// under mu in the order they happened. draining makes delivery
		// single-flight, which keeps the calls serialized and in order.
		outbox   []func()
		draining bool
	)
	// drain delivers pending calls in order. Callers must not hold mu. If
	// another worker is already draining, it returns at once — the active
	// drainer re-checks the outbox before finishing, so nothing is stranded.
	drain := func() {
		mu.Lock()
		if draining {
			mu.Unlock()
			return
		}
		draining = true
		for len(outbox) > 0 {
			batch := outbox
			outbox = nil
			mu.Unlock()
			for _, call := range batch {
				call()
			}
			mu.Lock()
		}
		draining = false
		mu.Unlock()
	}
	jobCh := make(chan job)
	for w := 0; w < r.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				err := runCtx.Err()
				var res T
				var start time.Time
				if instrumented {
					start = time.Now()
				}
				if err == nil {
					res, err = rep(runCtx, job.cell, job.cfg)
				}
				if instrumented && err == nil {
					end := time.Now()
					r.Obs.Observe(obs.ExpCellSeconds, end.Sub(start).Seconds())
					r.Obs.Span(obs.SpanCell, start.UnixNano(), end.UnixNano())
				}
				mu.Lock()
				if err != nil {
					r.Obs.Add(obs.ExpCellsFailed, 1)
					// Skips caused by our own abort are not errors; the
					// one that triggered the abort is already recorded.
					if firstErr == nil {
						firstErr = fmt.Errorf("experiment: cell %d seed %d: %w", job.cell, job.seed, err)
						cancelRun()
					}
				} else {
					results[job.cell][job.rep] = res
					counts[job.cell]++
					if counts[job.cell] == r.Seeds {
						r.Obs.Add(obs.ExpCellsCompleted, 1)
					}
					// Advance the contiguous completed prefix; cells
					// finish out of order, cellDone calls never do.
					for frontier < n && counts[frontier] == r.Seeds {
						if cellDone != nil {
							ci := frontier
							outbox = append(outbox, func() { cellDone(ci, results[ci]) })
						}
						frontier++
					}
				}
				done++
				d := done
				outbox = append(outbox, func() {
					r.Obs.Set(obs.ExpProgress, float64(d)/float64(total))
					if r.Progress != nil {
						r.Progress(d, total)
					}
				})
				mu.Unlock()
				drain()
			}
		}()
	}
	for _, job := range jobs {
		jobCh <- job
	}
	close(jobCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// cellConfig is replicate's config for a list of Cells: the cell's Params
// at the seed, run by its Algorithm, then its own Mutate (replicate applies
// the Runner's after).
func cellConfig(cells []Cell) func(int, uint64) (simnet.Config, error) {
	return func(ci int, seed uint64) (simnet.Config, error) {
		c := cells[ci]
		p := c.Params
		p.Seed = seed
		cfg, err := p.Config(c.Algorithm)
		if err == nil && c.Mutate != nil {
			c.Mutate(&cfg)
		}
		return cfg, err
	}
}

// Cell is one sweep point: a scenario and an algorithm, with an optional
// per-cell config mutation.
type Cell struct {
	// Params is the scenario (Seed is overwritten per replication).
	Params scenario.Params
	// Algorithm is the clustering algorithm under test.
	Algorithm cluster.Algorithm
	// Mutate optionally adjusts the materialized config (loss model,
	// propagation, adaptive BI, ...).
	Mutate func(*simnet.Config)
}

func aggregate(rs []metrics.Result) CellStats {
	ch := make([]float64, 0, len(rs))
	var clusters, memb, res, bcast stats.Accumulator
	for _, m := range rs {
		ch = append(ch, float64(m.CHChanges))
		clusters.Add(m.AvgClusters)
		memb.Add(float64(m.MembershipChanges))
		res.Add(m.MeanResidence)
		bcast.Add(float64(m.Broadcasts))
	}
	mean, ci := stats.MeanCI(ch)
	return CellStats{
		CHChanges:         mean,
		CHChangesCI:       ci,
		AvgClusters:       clusters.Mean(),
		MembershipChanges: memb.Mean(),
		MeanResidence:     res.Mean(),
		Broadcasts:        bcast.Mean(),
		Raw:               rs,
	}
}

// Series is one named curve of a Result.
type Series struct {
	// Name labels the curve (algorithm or variant).
	Name string `json:"name"`
	// Y holds one value per X point.
	Y []float64 `json:"y"`
	// CI holds the 95% half-widths (may be nil).
	CI []float64 `json:"ci,omitempty"`
}

// Result is a regenerated table or figure. The JSON field names are a
// stable wire format consumed by cmd/experiments -json and the mobicd API;
// the golden-file test in json_test.go pins them.
type Result struct {
	// ID is the experiment identifier ("fig3", "table1", "ablate-cci"...).
	ID string `json:"id"`
	// Title describes the artifact.
	Title string `json:"title"`
	// XLabel and YLabel name the axes.
	XLabel string `json:"x_label,omitempty"`
	YLabel string `json:"y_label,omitempty"`
	// X is the sweep axis.
	X []float64 `json:"x,omitempty"`
	// Series holds one curve per algorithm/variant.
	Series []Series `json:"series,omitempty"`
	// Notes carries free-form observations (shape checks, coverage...).
	Notes []string `json:"notes,omitempty"`
}

// samples holds what one replication measured for up to three series.
type samples [3][]float64

// meanOf folds one cell's replications in seed order, so every float sum
// is the serial loop's: m[k] is the mean of every seed's samples of series k.
func meanOf(reps []samples) (m [3]float64) {
	for k := range m {
		var acc stats.Accumulator
		for _, s := range reps {
			for _, x := range s[k] {
				acc.Add(x)
			}
		}
		m[k] = acc.Mean()
	}
	return m
}
