// Command mobicd serves MOBIC simulations over HTTP: submit a named
// experiment or a custom scenario sweep as a job, poll or stream its
// progress, and fetch the result as stable JSON. The queue is bounded —
// when it is full the daemon sheds load with 429 + Retry-After rather
// than queueing unboundedly.
//
// With -data-dir set, jobs are durable: every lifecycle transition is
// journaled to an fsync'd write-ahead log, so a crashed or killed daemon
// re-enqueues interrupted jobs on the next boot and resumes sweeps from
// their last completed-cell checkpoint. -max-attempts enables retry with
// exponential backoff; a job that fails that many times is quarantined as
// "poisoned".
//
// With -cache-entries > 0 (the default), results are content-addressed:
// every job spec is reduced to a canonical SHA-256 digest, a digest already
// cached answers the submission immediately with a finished job, and
// concurrent identical submissions collapse onto a single execution. With
// -data-dir the cache also persists to disk under <data-dir>/cache.
//
// With -coordinator the daemon runs no simulations itself: it places each
// job on one of the -peers workers by consistent-hashing its spec digest,
// proxies the /v1/jobs API transparently, health-checks the peers, and when
// a worker dies re-dispatches its interrupted jobs to the ring successor —
// shipping the checkpoint prefix observed so far so sweeps resume instead
// of restarting (see DESIGN.md S28).
//
// With -tenants the API is multi-tenant: a JSON config file assigns each
// tenant (identified by an Authorization API key or an explicit
// X-Mobic-Tenant header) a fair-share weight, priority, queue/run quotas
// and a token-bucket rate limit. Workers dequeue by weighted fair
// queueing, so one tenant's flood cannot starve the others; over-quota
// tenants are shed with per-tenant 429 + Retry-After. POST /v1/jobs:batch
// admits up to 64 specs atomically (journaled as one WAL record — a crash
// never admits half a batch).
//
// Observability: GET /v1/jobs/{id} reports live progress (fraction + ETA),
// /metrics merges the engine/experiment telemetry families (mobic_sim_*,
// mobic_net_*, mobic_experiment_*) with the service's own, logs are
// structured (-log-format text|json), and -debug-addr opts into a second
// listener serving net/http/pprof plus /debug/obs/spans (the sampled
// wall-clock span window).
//
// Examples:
//
//	mobicd -addr :8080 -data-dir /var/lib/mobicd -max-attempts 3
//	mobicd -addr :8080 -log-format json -debug-addr 127.0.0.1:6060
//	mobicd -addr :9090 -coordinator -peers http://10.0.0.1:8080,http://10.0.0.2:8080
//	curl -XPOST localhost:8080/v1/jobs -H 'Idempotency-Key: run-42' \
//	     -d '{"experiment":"fig3","seeds":1}'
//	curl localhost:8080/v1/jobs/<id>
//	curl -N localhost:8080/v1/jobs/<id>/stream
//	curl -XDELETE localhost:8080/v1/jobs/<id>
//	curl localhost:8080/livez
//	curl localhost:8080/readyz
//	curl localhost:8080/metrics
//	go tool pprof localhost:6060/debug/pprof/profile
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mobic/internal/cache"
	"mobic/internal/dispatch"
	"mobic/internal/experiment"
	"mobic/internal/fair"
	"mobic/internal/obs"
	"mobic/internal/service"
	"mobic/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mobicd:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger. format is "text" or
// "json"; anything else is an error so a typo fails at boot, not silently.
func newLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// newDebugHandler builds the opt-in diagnostics mux served on -debug-addr:
// the full net/http/pprof suite plus the registry's sampled span window as
// JSON. It is a separate listener on purpose — pprof handlers expose heap
// contents and must never ride the public API port.
func newDebugHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/obs/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Spans())
	})
	return mux
}

func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("mobicd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "HTTP listen address")
		queueCap   = fs.Int("queue", 64, "max queued jobs before submissions get 429")
		workers    = fs.Int("workers", 2, "jobs executed concurrently")
		seeds      = fs.Int("seeds", 3, "default replications per sweep cell")
		ttl        = fs.Duration("ttl", 15*time.Minute, "how long finished jobs stay queryable")
		drainGrace = fs.Duration("drain", 30*time.Second, "max wait for in-flight jobs on shutdown")
		quick      = fs.Bool("quick", false, "trim every simulation to 300 s (smoke/demo mode)")
		dataDir    = fs.String("data-dir", "", "journal directory for durable jobs (empty = in-memory)")
		maxTries   = fs.Int("max-attempts", 1, "executions per job before it is poisoned (1 = no retries)")
		logFormat  = fs.String("log-format", "text", "structured log format (text or json)")
		debugAddr  = fs.String("debug-addr", "", "opt-in listen address for net/http/pprof and /debug/obs/spans (empty = off)")
		compactAt  = fs.Int64("wal-compact-bytes", 8<<20, "journal size that triggers compaction (with -data-dir)")
		cacheSize  = fs.Int("cache-entries", 256, "in-memory result-cache entries (0 disables the cache)")
		cacheDisk  = fs.Int64("cache-disk-mb", 256, "on-disk result-cache budget in MiB (with -data-dir)")
		coordMode  = fs.Bool("coordinator", false, "run as a cluster coordinator instead of a worker (requires -peers)")
		peerList   = fs.String("peers", "", "comma-separated worker base URLs for -coordinator mode")
		replicate  = fs.Bool("replicate", false, "stream job checkpoints to the ring successor for fast failover (both modes)")
		failAfter  = fs.Int("fail-after", 2, "consecutive failed health probes before a peer is marked down (-coordinator)")
		pollEvery  = fs.Duration("poll-every", time.Second, "tracked-job status/checkpoint poll period (-coordinator)")
		brkThresh  = fs.Int("breaker-threshold", 5, "consecutive transport failures that open a peer's circuit breaker (-coordinator)")
		brkCool    = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before a half-open probe (-coordinator)")
		tenantsCfg = fs.String("tenants", "", "JSON tenant config file: per-tenant weights, quotas and rate limits (empty = single default tenant)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tenants := fair.DefaultRegistry()
	if *tenantsCfg != "" {
		reg, err := fair.LoadConfig(*tenantsCfg)
		if err != nil {
			return err
		}
		tenants = reg
	}
	if *failAfter <= 0 {
		return fmt.Errorf("-fail-after must be positive (got %d)", *failAfter)
	}
	if *pollEvery <= 0 {
		return fmt.Errorf("-poll-every must be positive (got %s)", *pollEvery)
	}
	if *brkThresh <= 0 {
		return fmt.Errorf("-breaker-threshold must be positive (got %d)", *brkThresh)
	}
	if *brkCool <= 0 {
		return fmt.Errorf("-breaker-cooldown must be positive (got %s)", *brkCool)
	}
	logger, err := newLogger(logw, *logFormat)
	if err != nil {
		return err
	}

	registry := obs.NewRegistry()

	// The digest-keyed result layer, shared shape for both modes: memory
	// LRU always (unless disabled), disk layer only with a data dir.
	var results *cache.Cache
	if *cacheSize > 0 {
		cc := cache.Config{MaxEntries: *cacheSize, Obs: registry}
		if *dataDir != "" {
			cc.Dir = filepath.Join(*dataDir, "cache")
			cc.MaxDiskBytes = *cacheDisk << 20
		}
		results, err = cache.Open(cc)
		if err != nil {
			return err
		}
	}

	// drain is filled in per mode and runs on SIGTERM/SIGINT before the
	// HTTP listener closes.
	var handler http.Handler
	var drain func()

	if *coordMode {
		peers := strings.FieldsFunc(*peerList, func(r rune) bool { return r == ',' })
		runner := experiment.Runner{Seeds: *seeds}
		if *quick {
			runner.Mutate = func(cfg *simnet.Config) { cfg.Duration = 300 }
		}
		// The embedded fallback keeps accepting jobs when every worker is
		// unreachable: a degraded answer beats a 503. In-memory on purpose —
		// the coordinator's durability story is the workers' journals.
		local := service.New(service.Config{
			QueueCapacity: *queueCap,
			Workers:       *workers,
			TTL:           *ttl,
			Runner:        runner,
			Obs:           registry,
			Tenants:       tenants,
		})
		local.Start()
		coord, err := dispatch.New(dispatch.Config{
			Peers:            peers,
			WorkersPerPeer:   *workers,
			TTL:              *ttl,
			PollEvery:        *pollEvery,
			FailAfter:        *failAfter,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCool,
			Replicate:        *replicate,
			Local:            local,
			Cache:            results,
			Obs:              registry,
			Logger:           logger,
		})
		if err != nil {
			return err
		}
		coord.Start()
		logger.Info("coordinator mode", "peers", len(peers), "replicate", *replicate)
		handler = dispatch.NewHandler(coord)
		drain = func() {
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
			defer cancel()
			if err := coord.Shutdown(drainCtx); err != nil {
				logger.Warn("coordinator drain incomplete", "err", err)
			}
			if err := local.Shutdown(drainCtx); err != nil {
				logger.Warn("local fallback drain incomplete", "err", err)
			}
		}
	} else {
		runner := experiment.Runner{Seeds: *seeds}
		if *quick {
			runner.Mutate = func(cfg *simnet.Config) { cfg.Duration = 300 }
		}
		svc, err := service.Open(service.Config{
			QueueCapacity: *queueCap,
			Workers:       *workers,
			TTL:           *ttl,
			Runner:        runner,
			DataDir:       *dataDir,
			Retry:         service.RetryPolicy{MaxAttempts: *maxTries},
			CompactBytes:  *compactAt,
			Replicate:     *replicate,
			Obs:           registry,
			Cache:         results,
			Tenants:       tenants,
		})
		if err != nil {
			return err
		}
		if n := svc.RecoveredJobs(); n > 0 {
			logger.Info("recovered interrupted jobs", "count", n, "data_dir", *dataDir)
		}
		svc.Start()
		handler = service.NewHandler(svc)
		drain = func() {
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
			defer cancel()
			if err := svc.Shutdown(drainCtx); err != nil {
				logger.Warn("drain incomplete, jobs canceled", "err", err)
			}
		}
	}

	server := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Streams are long-lived; only bound the read side.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String(),
		"queue", *queueCap, "workers", *workers, "seeds", *seeds)

	var debugServer *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugServer = &http.Server{
			Handler:           newDebugHandler(registry),
			ReadHeaderTimeout: 10 * time.Second,
		}
		logger.Info("debug listener up (pprof + obs spans)", "addr", dln.Addr().String())
		go func() {
			if err := debugServer.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: refuse new jobs and let queued/in-flight ones
	// finish within the grace period (hard-canceling past it), then close
	// the HTTP side — by now every stream has seen its terminal status.
	logger.Info("draining", "grace", drainGrace.String())
	drain()
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := server.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "err", err)
	}
	if debugServer != nil {
		_ = debugServer.Close()
	}
	logger.Info("bye")
	return nil
}
