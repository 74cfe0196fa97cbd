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
	// Progress, when set, is called after each completed cell.
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

// cellJob is one (cell index, replication) unit of work.
type cellJob struct {
	cell int
	rep  int
	seed uint64
	cfg  simnet.Config
}

// checkpointEntry is one pending Checkpoint callback: a newly completed
// cell of the contiguous frontier waiting to be delivered outside the
// aggregation lock.
type checkpointEntry struct {
	cell  int
	stats CellStats
}

// RunCells executes every (params, algorithm) cell over all seeds, in
// parallel, and aggregates per cell. make(cfg) materializes a cell's config
// for one seed. Results are ordered like the inputs.
//
// Cancellation: when ctx is canceled or times out, in-flight simulations
// stop at the next scheduler chunk, queued work is skipped, and RunCells
// returns ctx.Err() — this is how service jobs abort promptly. The first
// worker error cancels the sweep the same way: remaining queued jobs are
// skipped instead of burning CPU on a result that will be discarded, and
// the first error is returned.
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

	// runCtx aborts the whole sweep on the first worker error; the caller's
	// ctx still governs external cancellation.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var jobs []cellJob
	for ci := r.StartCell; ci < len(cells); ci++ {
		c := cells[ci]
		for s := 0; s < r.Seeds; s++ {
			p := c.Params
			p.Seed = r.BaseSeed + uint64(s)
			cfg, err := p.Config(c.Algorithm)
			if err != nil {
				return nil, fmt.Errorf("experiment: cell %d: %w", ci, err)
			}
			if c.Mutate != nil {
				c.Mutate(&cfg)
			}
			if r.Mutate != nil {
				r.Mutate(&cfg)
			}
			if cfg.Obs == nil {
				cfg.Obs = r.Obs
			}
			jobs = append(jobs, cellJob{cell: ci, rep: s, seed: p.Seed, cfg: cfg})
		}
	}

	out := make([]CellStats, len(cells))
	for ci := 0; ci < r.StartCell && ci < len(r.Resume); ci++ {
		out[ci] = r.Resume[ci]
	}
	if r.StartCell > 0 {
		r.Obs.Add(obs.ExpCellsResumed, int64(r.StartCell))
	}
	instrumented := r.Obs.Enabled()

	// Replications are stored by seed index, not completion order, so the
	// per-cell aggregation is deterministic regardless of worker count.
	results := make([][]metrics.Result, len(cells))
	counts := make([]int, len(cells))
	completed := make([]bool, len(cells))
	for ci := r.StartCell; ci < len(cells); ci++ {
		results[ci] = make([]metrics.Result, r.Seeds)
	}
	var (
		mu       sync.Mutex
		firstErr error
		done     int
		frontier = r.StartCell
		wg       sync.WaitGroup
		// Checkpoint delivery is decoupled from the aggregation lock:
		// frontier advances enqueue cells under mu (so the queue carries
		// the strictly increasing frontier order), and whichever worker
		// finds entries pending drains them after unlocking. cpDraining
		// makes the drain single-flight, which keeps callbacks serialized
		// and in order while every other worker keeps simulating instead
		// of stalling behind a slow callback (a per-cell fsync, say).
		cpQueue    []checkpointEntry
		cpDraining bool
	)
	// drainCheckpoints delivers pending checkpoints in order. Callers must
	// not hold mu. If another worker is already draining, it returns at
	// once — the active drainer re-checks the queue before finishing, so
	// nothing is stranded.
	drainCheckpoints := func() {
		mu.Lock()
		if cpDraining {
			mu.Unlock()
			return
		}
		cpDraining = true
		for len(cpQueue) > 0 {
			batch := cpQueue
			cpQueue = nil
			mu.Unlock()
			for _, e := range batch {
				r.Checkpoint(e.cell, e.stats)
			}
			mu.Lock()
		}
		cpDraining = false
		mu.Unlock()
	}
	jobCh := make(chan cellJob)
	for w := 0; w < r.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				err := runCtx.Err()
				var res *simnet.Result
				var cellStart time.Time
				if instrumented {
					cellStart = time.Now()
				}
				if err == nil {
					var net *simnet.Network
					net, err = simnet.New(job.cfg)
					if err == nil {
						res, err = net.RunContext(runCtx)
					}
				}
				if instrumented && err == nil {
					cellEnd := time.Now()
					r.Obs.Observe(obs.ExpCellSeconds, cellEnd.Sub(cellStart).Seconds())
					r.Obs.Span(obs.SpanCell, cellStart.UnixNano(), cellEnd.UnixNano())
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
					results[job.cell][job.rep] = res.Metrics
					counts[job.cell]++
					if counts[job.cell] == r.Seeds {
						out[job.cell] = aggregate(results[job.cell])
						completed[job.cell] = true
						r.Obs.Add(obs.ExpCellsCompleted, 1)
						// Advance the contiguous completed prefix; cells
						// finish out of order, checkpoints never do.
						for frontier < len(cells) && completed[frontier] {
							if r.Checkpoint != nil {
								cpQueue = append(cpQueue, checkpointEntry{frontier, out[frontier]})
							}
							frontier++
						}
					}
				}
				done++
				progress := r.Progress
				total := len(jobs)
				d := done
				mu.Unlock()
				if total > 0 {
					r.Obs.Set(obs.ExpProgress, float64(d)/float64(total))
				}
				if r.Checkpoint != nil {
					drainCheckpoints()
				}
				if progress != nil {
					progress(d, total)
				}
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
	return out, nil
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
