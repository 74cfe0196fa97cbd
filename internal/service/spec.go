// Package service turns the batch experiment harness into a
// simulation-as-a-service backend: callers submit jobs (a named experiment
// or a custom scenario sweep), per-tenant fair queueing (internal/fair)
// applies backpressure, a worker pool executes them on experiment.Runner,
// and an in-memory store with TTL eviction serves status, streaming
// progress and final results.
// cmd/mobicd exposes it over HTTP.
package service

import (
	"context"
	"errors"
	"fmt"

	"mobic/internal/cluster"
	"mobic/internal/experiment"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// Submission limits: a shared daemon must bound the work a single job can
// demand, or one request starves the queue for everyone.
const (
	// MaxSeeds bounds replications per cell.
	MaxSeeds = 32
	// MaxNodes bounds scenario size.
	MaxNodes = 1000
	// MaxDuration bounds simulated seconds per cell.
	MaxDuration = 3600.0
	// MaxAlgorithms bounds curves per sweep.
	MaxAlgorithms = 8
	// MaxSweepPoints bounds the sweep axis length.
	MaxSweepPoints = 64
	// MaxTiles bounds the ignored Tiles field (see JobSpec.Tiles).
	MaxTiles = 64
)

// JobSpec is one simulation request: exactly one of Experiment (a named
// paper artifact or ablation, see experiment.All) or Sweep (a custom
// scenario × algorithm grid) must be set.
type JobSpec struct {
	// Experiment names a predefined experiment ("fig3", "ablate-cci", ...).
	Experiment string `json:"experiment,omitempty"`
	// Sweep is a custom scenario sweep.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Seeds is the number of replications per cell (default: the
	// service's base runner, usually 3).
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed is the first scenario seed (default 1).
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// Duration overrides the simulated seconds of every cell (0 keeps
	// each scenario's own duration; the paper's is 900 s).
	Duration float64 `json:"duration,omitempty"`
	// TimeoutSeconds bounds the job's wall-clock execution (0 = none).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// IncludeRaw keeps the per-seed metrics snapshots in the returned
	// cells (they are stripped by default to keep responses small).
	IncludeRaw bool `json:"include_raw,omitempty"`
	// Tiles does nothing beyond validation: it once selected the
	// tiled-parallel engine, which produced bit-identical results and was
	// removed because it was not measurably faster. It is still accepted in
	// [0, MaxTiles] and still folded into the spec digest exactly as before,
	// so existing submissions and cache keys stay valid.
	Tiles int `json:"tiles,omitempty"`
}

// SweepSpec is a custom parameter sweep: one scenario template, swept over
// TxRanges (or run at the template's own range when empty), once per
// algorithm.
type SweepSpec struct {
	// Scenario is the template; zero fields take the paper's Table 1
	// defaults.
	Scenario ScenarioSpec `json:"scenario"`
	// Algorithms names the clustering algorithms to compare
	// ("mobic", "lcc", "lowest-id", "max-degree", ...; see cluster.ByName).
	Algorithms []string `json:"algorithms"`
	// TxRanges is the sweep axis in meters; empty means a single cell at
	// the scenario's transmission range.
	TxRanges []float64 `json:"tx_ranges,omitempty"`
}

// ScenarioSpec mirrors scenario.Params with JSON tags; zero values fall
// back to the paper's Table 1 defaults (via scenario.Base).
type ScenarioSpec struct {
	N        int     `json:"n,omitempty"`
	Side     float64 `json:"side,omitempty"`
	MaxSpeed float64 `json:"max_speed,omitempty"`
	Pause    float64 `json:"pause,omitempty"`
	TxRange  float64 `json:"tx_range,omitempty"`
	BI       float64 `json:"bi,omitempty"`
	TP       float64 `json:"tp,omitempty"`
	CCI      float64 `json:"cci,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	Warmup   float64 `json:"warmup,omitempty"`
	// BIMin and BIMax enable the per-node adaptive broadcast period (both
	// must be set together; see scenario.Params).
	BIMin float64 `json:"bi_min,omitempty"`
	BIMax float64 `json:"bi_max,omitempty"`
	// EnergyJ enables the battery model with this initial budget in joules.
	EnergyJ float64 `json:"energy_j,omitempty"`
}

// params materializes the spec over Table 1 defaults.
func (s ScenarioSpec) params() scenario.Params {
	p := scenario.Base(150)
	if s.N > 0 {
		p.N = s.N
	}
	if s.Side > 0 {
		p.Side = s.Side
	}
	if s.MaxSpeed > 0 {
		p.MaxSpeed = s.MaxSpeed
	}
	if s.Pause > 0 {
		p.Pause = s.Pause
	}
	if s.TxRange > 0 {
		p.TxRange = s.TxRange
	}
	if s.BI > 0 {
		p.BI = s.BI
	}
	if s.TP > 0 {
		p.TP = s.TP
	}
	if s.CCI > 0 {
		p.CCI = s.CCI
	}
	if s.Duration > 0 {
		p.Duration = s.Duration
	}
	if s.Warmup > 0 {
		p.Warmup = s.Warmup
	}
	if s.BIMin > 0 {
		p.BIMin = s.BIMin
	}
	if s.BIMax > 0 {
		p.BIMax = s.BIMax
	}
	if s.EnergyJ > 0 {
		p.EnergyJ = s.EnergyJ
	}
	return p
}

// ErrInvalidSpec tags every submission validation failure, so the HTTP
// layer can map the whole class to 400.
var ErrInvalidSpec = errors.New("service: invalid job spec")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// Validate checks the spec without running anything.
func (s JobSpec) Validate() error {
	switch {
	case s.Experiment == "" && s.Sweep == nil:
		return invalidf("one of experiment or sweep is required")
	case s.Experiment != "" && s.Sweep != nil:
		return invalidf("experiment and sweep are mutually exclusive")
	case s.Seeds < 0 || s.Seeds > MaxSeeds:
		return invalidf("seeds %d outside [0, %d]", s.Seeds, MaxSeeds)
	case s.Duration < 0 || s.Duration > MaxDuration:
		return invalidf("duration %g outside [0, %g]", s.Duration, MaxDuration)
	case s.TimeoutSeconds < 0:
		return invalidf("timeout_seconds %g is negative", s.TimeoutSeconds)
	case s.Tiles < 0 || s.Tiles > MaxTiles:
		return invalidf("tiles %d outside [0, %d]", s.Tiles, MaxTiles)
	}
	if s.Experiment != "" {
		d, err := experiment.ByID(s.Experiment)
		if err != nil {
			return invalidf("%v", err)
		}
		if s.Duration > 0 && s.Duration < d.MinDuration {
			return invalidf("experiment %s needs a duration of at least %g s, got %g",
				s.Experiment, d.MinDuration, s.Duration)
		}
		return nil
	}
	sw := s.Sweep
	if len(sw.Algorithms) == 0 {
		return invalidf("sweep needs at least one algorithm")
	}
	if len(sw.Algorithms) > MaxAlgorithms {
		return invalidf("%d algorithms exceeds the limit of %d", len(sw.Algorithms), MaxAlgorithms)
	}
	if len(sw.TxRanges) > MaxSweepPoints {
		return invalidf("%d sweep points exceeds the limit of %d", len(sw.TxRanges), MaxSweepPoints)
	}
	for _, name := range sw.Algorithms {
		if name == "" {
			return invalidf("empty algorithm name")
		}
		if _, err := cluster.ByName(name); err != nil {
			return invalidf("%v", err)
		}
	}
	p := sw.Scenario.params()
	if p.N > MaxNodes {
		return invalidf("n %d exceeds the limit of %d", p.N, MaxNodes)
	}
	if p.Duration > MaxDuration {
		return invalidf("scenario duration %g exceeds the limit of %g", p.Duration, MaxDuration)
	}
	if err := p.Validate(); err != nil {
		return invalidf("%v", err)
	}
	for _, tx := range sw.TxRanges {
		if tx <= 0 {
			return invalidf("tx_range %g must be positive", tx)
		}
	}
	return nil
}

// Output is a finished job's payload.
type Output struct {
	// Result is the regenerated figure/table (stable JSON, see
	// experiment.Result).
	Result *experiment.Result `json:"result,omitempty"`
	// Cells carries the per-cell aggregates of a custom sweep, ordered
	// algorithm-major then sweep-point (absent for named experiments).
	Cells []experiment.CellStats `json:"cells,omitempty"`
}

// run executes the spec on the given base runner. progress receives
// (done, total) cell-completion updates from the runner's worker pool.
func (s JobSpec) run(ctx context.Context, base experiment.Runner, progress func(done, total int)) (*Output, error) {
	r := base
	r.Progress = progress
	if s.Seeds > 0 {
		r.Seeds = s.Seeds
	}
	if s.BaseSeed > 0 {
		r.BaseSeed = s.BaseSeed
	}
	if s.Duration > 0 {
		prev := r.Mutate
		dur := s.Duration
		r.Mutate = func(cfg *simnet.Config) {
			if prev != nil {
				prev(cfg)
			}
			cfg.Duration = dur
		}
	}

	if s.Experiment != "" {
		d, err := experiment.ByID(s.Experiment)
		if err != nil {
			return nil, err
		}
		res, err := d.Run(ctx, r)
		if err != nil {
			return nil, err
		}
		return &Output{Result: res}, nil
	}

	return s.runSweep(ctx, r)
}

// runSweep executes a custom sweep and synthesizes an experiment.Result
// (clusterhead changes per algorithm over the sweep axis) plus the raw
// per-cell aggregates.
func (s JobSpec) runSweep(ctx context.Context, r experiment.Runner) (*Output, error) {
	sw := s.Sweep
	xs := sw.TxRanges
	template := sw.Scenario.params()
	if len(xs) == 0 {
		xs = []float64{template.TxRange}
	}
	var cells []experiment.Cell
	for _, name := range sw.Algorithms {
		alg, err := cluster.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, tx := range xs {
			p := template
			p.TxRange = tx
			cells = append(cells, experiment.Cell{Params: p, Algorithm: alg})
		}
	}
	cs, err := r.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{
		ID:     "sweep",
		Title:  "custom scenario sweep",
		XLabel: "transmission range (m)",
		YLabel: "clusterhead changes",
		X:      xs,
	}
	for ai, name := range sw.Algorithms {
		series := experiment.Series{Name: name, Y: make([]float64, len(xs)), CI: make([]float64, len(xs))}
		for xi := range xs {
			cell := cs[ai*len(xs)+xi]
			series.Y[xi] = cell.CHChanges
			series.CI[xi] = cell.CHChangesCI
		}
		res.Series = append(res.Series, series)
	}
	if !s.IncludeRaw {
		for i := range cs {
			cs[i].Raw = nil
		}
	}
	return &Output{Result: res, Cells: cs}, nil
}
