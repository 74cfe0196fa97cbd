// Package obs is the engine-to-daemon instrumentation layer: a small,
// allocation-free telemetry facade threaded from the event kernel
// (internal/sim) through the network layer (internal/simnet) and the sweep
// runner (internal/experiment) up to the mobicd HTTP API.
//
// The design constraint is zero cost when disabled. Metrics are identified
// by dense integer IDs — not strings — so recording is an interface call
// plus an atomic, with nothing to hash or intern; the default Nop recorder
// makes every hook a no-op, proven allocation-free by the package tests and
// pinned by the engine's steady-state allocation gate. Instrumented or not,
// telemetry never feeds back into the simulation, so trace digests are
// bit-identical either way.
package obs

// Metric identifies one engine/experiment telemetry series. The IDs are
// dense array indices into a Registry, which is what keeps recording
// allocation- and lookup-free on the per-event hot path.
type Metric uint8

// Engine (internal/sim) metrics.
const (
	// SimEventsFired counts executed simulator events.
	SimEventsFired Metric = iota
	// SimEventsCanceled counts events canceled before firing.
	SimEventsCanceled
	// SimEventsPooled counts fire-and-forget events recycled through the
	// scheduler's free list.
	SimEventsPooled
	// SimHeapDepth gauges the pending event-queue depth.
	SimHeapDepth
	// SimRate gauges simulated seconds advanced per wall-clock second.
	SimRate

	// NetBeaconsSent counts hello broadcasts transmitted.
	NetBeaconsSent
	// NetDeliveries counts hello beacons successfully handed to a receiver.
	NetDeliveries
	// NetCollisions counts receptions destroyed by MAC overlap.
	NetCollisions
	// NetDrops counts beacons dropped by the loss model.
	NetDrops
	// NetNeighborAdds counts neighbor-table insertions (first beacon heard).
	NetNeighborAdds
	// NetNeighborTimeouts counts neighbor-table purges (beacons missed).
	NetNeighborTimeouts
	// NetRoleChanges counts clustering role transitions.
	NetRoleChanges
	// NetHeadChanges counts clusterhead reaffiliations.
	NetHeadChanges

	// ExpCellsCompleted counts sweep cells fully aggregated over all seeds.
	ExpCellsCompleted
	// ExpCellsFailed counts cell replications that ended in error.
	ExpCellsFailed
	// ExpCellsResumed counts cells skipped on a checkpoint resume — work a
	// crash or retry did NOT have to repeat.
	ExpCellsResumed
	// ExpProgress gauges the most recently updated sweep's completed
	// replication fraction in [0, 1].
	ExpProgress
	// ExpCellSeconds is a histogram of wall-clock seconds per completed
	// cell replication.
	ExpCellSeconds

	// CacheHits counts result-cache lookups served without simulation.
	CacheHits
	// CacheMisses counts result-cache lookups that fell through to a run.
	CacheMisses
	// CacheEvictions counts cached results dropped by the size bounds.
	CacheEvictions

	// DispatchForwarded counts jobs the coordinator placed on a worker.
	DispatchForwarded
	// DispatchFailovers counts interrupted jobs re-dispatched to a
	// successor peer after a worker failure.
	DispatchFailovers
	// DispatchPeersHealthy gauges the number of peers passing /readyz.
	DispatchPeersHealthy

	// TilePlannedTicks does nothing: the engine never writes it, so it
	// always reads 0. It counted beacon ticks served from the removed
	// tiled-parallel planner and is kept so existing readers still compile.
	TilePlannedTicks
	// TileFallbackTicks does nothing: the engine never writes it, so it
	// always reads 0. It counted ticks that missed a tiled plan.
	TileFallbackTicks
	// TileBarrierWaitNanos does nothing: the engine never writes it, so it
	// always reads 0. It timed the tiled planner's worker barrier.
	TileBarrierWaitNanos

	// CacheCorrupt counts disk-cache entries that failed their CRC or
	// framing check and were quarantined.
	CacheCorrupt

	// ReplBatches counts checkpoint-replication batches a worker shipped
	// to its ring successor.
	ReplBatches
	// ReplRecords counts individual checkpoint records acknowledged by a
	// replica.
	ReplRecords
	// ReplFailures counts replication batch sends that failed (and will
	// be retried on the next flush).
	ReplFailures
	// ReplApplied counts checkpoint records a replica accepted and stored.
	ReplApplied
	// ReplRestores counts restores that resumed from a checkpoint prefix
	// held in the local replica store.
	ReplRestores

	// DispatchRetries counts coordinator→peer call attempts beyond the
	// first (the bounded-retry volume).
	DispatchRetries
	// DispatchBreakerOpens counts per-peer circuit-breaker trips into the
	// open state.
	DispatchBreakerOpens
	// DispatchBreakerShortCircuits counts calls refused locally because a
	// peer's breaker was open.
	DispatchBreakerShortCircuits
	// DispatchDegraded counts jobs the coordinator ran locally because
	// the ring had no live owner.
	DispatchDegraded

	// ChaosInjected counts faults injected by a chaos schedule.
	ChaosInjected

	// NumMetrics is the number of defined metrics (array sizing).
	NumMetrics
)

// Kind is a metric's Prometheus type.
type Kind uint8

// Metric kinds.
const (
	Counter Kind = iota
	Gauge
	Histogram
)

// Def is one metric's exposition metadata.
type Def struct {
	// Name is the Prometheus family name.
	Name string
	// Help is the HELP line.
	Help string
	// Kind selects counter, gauge or histogram exposition.
	Kind Kind
}

// defs maps each Metric to its exposition metadata. Order must match the
// Metric constants.
var defs = [NumMetrics]Def{
	SimEventsFired:      {"mobic_sim_events_fired_total", "Simulator events executed by the event kernel.", Counter},
	SimEventsCanceled:   {"mobic_sim_events_canceled_total", "Simulator events canceled before firing.", Counter},
	SimEventsPooled:     {"mobic_sim_events_pooled_total", "Fire-and-forget events recycled through the scheduler free list.", Counter},
	SimHeapDepth:        {"mobic_sim_heap_depth", "Pending events in the scheduler queue (most recent simulation).", Gauge},
	SimRate:             {"mobic_sim_rate_seconds_per_second", "Simulated seconds advanced per wall-clock second (most recent chunk).", Gauge},
	NetBeaconsSent:      {"mobic_net_beacons_sent_total", "Hello beacons broadcast by all nodes.", Counter},
	NetDeliveries:       {"mobic_net_deliveries_total", "Hello beacons successfully received.", Counter},
	NetCollisions:       {"mobic_net_collisions_total", "Receptions destroyed by MAC-level overlap.", Counter},
	NetDrops:            {"mobic_net_drops_total", "Beacons dropped by the channel loss model.", Counter},
	NetNeighborAdds:     {"mobic_net_neighbor_adds_total", "Neighbor-table insertions (first beacon heard from a node).", Counter},
	NetNeighborTimeouts: {"mobic_net_neighbor_timeouts_total", "Neighbor-table purges after missed beacons.", Counter},
	NetRoleChanges:      {"mobic_net_role_changes_total", "Clustering role transitions across all nodes.", Counter},
	NetHeadChanges:      {"mobic_net_head_changes_total", "Clusterhead reaffiliations across all nodes.", Counter},
	ExpCellsCompleted:   {"mobic_experiment_cells_completed_total", "Sweep cells fully aggregated over all replications.", Counter},
	ExpCellsFailed:      {"mobic_experiment_cells_failed_total", "Cell replications that ended in error.", Counter},
	ExpCellsResumed:     {"mobic_experiment_cells_resumed_total", "Cells skipped via checkpoint resume instead of re-simulated.", Counter},
	ExpProgress:         {"mobic_experiment_progress_ratio", "Completed replication fraction of the most recently updated sweep.", Gauge},
	ExpCellSeconds:      {"mobic_experiment_cell_seconds", "Wall-clock seconds per completed cell replication.", Histogram},

	CacheHits:      {"mobic_cache_hits_total", "Result-cache lookups served without re-simulating.", Counter},
	CacheMisses:    {"mobic_cache_misses_total", "Result-cache lookups that fell through to a real run.", Counter},
	CacheEvictions: {"mobic_cache_evictions_total", "Cached results dropped by the entry or byte bounds.", Counter},

	DispatchForwarded:    {"mobic_dispatch_forwarded_total", "Jobs the coordinator placed on a worker peer.", Counter},
	DispatchFailovers:    {"mobic_dispatch_failovers_total", "Interrupted jobs re-dispatched to a successor peer.", Counter},
	DispatchPeersHealthy: {"mobic_dispatch_peers_healthy", "Worker peers currently passing their readiness probe.", Gauge},

	TilePlannedTicks:     {"mobic_tile_planned_ticks_total", "Unused; always 0 (the tiled planner was removed).", Counter},
	TileFallbackTicks:    {"mobic_tile_fallback_ticks_total", "Unused; always 0 (the tiled planner was removed).", Counter},
	TileBarrierWaitNanos: {"mobic_tile_barrier_wait_nanos_total", "Unused; always 0 (the tiled planner was removed).", Counter},

	CacheCorrupt: {"mobic_cache_corrupt_total", "Disk-cache entries that failed CRC/framing and were quarantined.", Counter},

	ReplBatches:  {"mobic_repl_batches_total", "Checkpoint-replication batches shipped to the ring successor.", Counter},
	ReplRecords:  {"mobic_repl_records_total", "Checkpoint records acknowledged by a replica.", Counter},
	ReplFailures: {"mobic_repl_failures_total", "Replication batch sends that failed and await retry.", Counter},
	ReplApplied:  {"mobic_repl_applied_total", "Checkpoint records accepted into the local replica store.", Counter},
	ReplRestores: {"mobic_repl_restores_total", "Restores that resumed from a checkpoint prefix in the local replica store.", Counter},

	DispatchRetries:              {"mobic_dispatch_retries_total", "Coordinator-to-peer call attempts beyond the first.", Counter},
	DispatchBreakerOpens:         {"mobic_dispatch_breaker_opens_total", "Per-peer circuit-breaker trips into the open state.", Counter},
	DispatchBreakerShortCircuits: {"mobic_dispatch_breaker_short_circuits_total", "Calls refused locally because the peer's breaker was open.", Counter},
	DispatchDegraded:             {"mobic_dispatch_degraded_total", "Jobs run locally on the coordinator because the ring had no live owner.", Counter},

	ChaosInjected: {"mobic_chaos_injected_total", "Faults injected by the active chaos schedule.", Counter},
}

// Definition returns the exposition metadata for m.
func Definition(m Metric) Def { return defs[m] }

// SpanKind names an instrumented wall-clock region for the sampled span
// facility.
type SpanKind uint8

// Span kinds.
const (
	// SpanSimChunk is one scheduler chunk of Network.RunContext.
	SpanSimChunk SpanKind = iota
	// SpanCell is one sweep cell replication (simnet.New + Run).
	SpanCell
	// SpanJob is one service job execution attempt.
	SpanJob
	// SpanFailover is one coordinator failover: worker declared dead
	// through the interrupted job restored on its successor.
	SpanFailover

	// NumSpanKinds is the number of defined span kinds.
	NumSpanKinds
)

// spanKindNames maps SpanKind to its wire name.
var spanKindNames = [NumSpanKinds]string{"sim_chunk", "cell", "job", "failover"}

// String returns the span kind's wire name.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// Recorder receives engine telemetry. Implementations must be safe for
// concurrent use (many simulations record into one recorder) and must not
// allocate on Add/Set/Observe/Span — the engine's steady-state allocation
// gate runs with a recorder installed.
//
// Enabled gates work that only exists to feed the recorder (wall-clock
// reads, ratio computation): callers skip it entirely when Enabled reports
// false, which is how the Nop default stays zero-cost beyond a predictable
// interface call per hook.
type Recorder interface {
	// Enabled reports whether recording has any effect.
	Enabled() bool
	// Add increments a counter metric by delta.
	Add(m Metric, delta int64)
	// Set updates a gauge metric.
	Set(m Metric, v float64)
	// Observe records one sample into a histogram metric.
	Observe(m Metric, v float64)
	// Span records a completed wall-clock region. start and end are
	// nanosecond timestamps (time.Time.UnixNano); implementations may
	// sample and keep only a bounded window.
	Span(k SpanKind, startNanos, endNanos int64)
}

// Nop is the zero-cost default Recorder: every method is an empty no-op, so
// an instrumented engine with Nop installed runs allocation-free and within
// noise of an uninstrumented one.
type Nop struct{}

// Enabled reports false: hooks should skip recording-only work.
func (Nop) Enabled() bool { return false }

// Add discards the increment.
func (Nop) Add(Metric, int64) {}

// Set discards the gauge update.
func (Nop) Set(Metric, float64) {}

// Observe discards the sample.
func (Nop) Observe(Metric, float64) {}

// Span discards the span.
func (Nop) Span(SpanKind, int64, int64) {}
