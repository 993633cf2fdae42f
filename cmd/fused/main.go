// Command fused serves truth discovery over HTTP: it loads a JSONL store
// (the one store file schema datagen, fuse and every persist write; see the
// README's "Store file schema"), trains a fusion model, and answers queries
// while ingesting new claims, periodically re-fusing the accumulated data
// with the correlation-aware batch model. A -store line that does not match
// the schema is refused at load with a "line N:" error naming the key.
//
// Usage:
//
//	fused -store data.jsonl [-addr :8080]
//	      [-method precrec|corr|aggressive|elastic|union|3est|ltm]
//	      [-alpha 0.5] [-scope global|subject] [-smoothing 0]
//	      [-refresh 30s] [-persist out.jsonl] [-parallelism 0]
//	      [-shards 1] [-partial-rebuild]
//	      [-max-score-triples 1024] [-max-body-bytes 1048576]
//	      [-wal dir] [-wal-sync always|interval|off]
//	      [-wal-sync-interval 100ms] [-wal-segment-bytes 4194304]
//	      [-wal-retain-segments 0] [-follow http://leader:6060]
//	      [-log-format text|json] [-log-level info]
//	      [-debug-addr localhost:6060]
//	      [-rate-limit 0] [-rate-burst 0] [-request-timeout 0]
//	      [-max-inflight 0]
//
// Endpoints (all JSON):
//
//	POST /v1/observe      ingest claims; instantly fresh probabilities
//	GET  /v1/triple       query one triple (?subject=&predicate=&object=)
//	GET  /v1/subject/{s}  fused results about a subject, pre-ranked
//	GET  /v1/source/{s}   fused results a source contributed to, pre-ranked
//	POST /v1/score        bulk-score up to -max-score-triples triples
//	POST /v1/refuse       force a batch re-fusion now
//	GET  /healthz         liveness + snapshot sequence + build info
//	GET  /metrics         Prometheus metrics
//	GET  /debug/traces    ring buffer of recent request/refresh traces
//
// Every request is traced: a well-formed X-Corrfused-Trace-Id header is
// honored (and echoed on the response; a fresh ID is generated otherwise),
// stages are timed into per-endpoint and per-stage latency histograms, and
// the last 256 finished traces sit in the /debug/traces ring buffer
// (?min_ms= filters at read time). Requests slower than 1s are logged as
// structured warnings carrying the trace ID.
// -log-format json switches logs to one JSON object per line.
//
// With -debug-addr the service additionally serves net/http/pprof profiles,
// /debug/traces and /metrics on a SEPARATE listener — bind it to localhost
// so profiling and introspection never ride the public address.
//
// Reads are served from an immutable per-snapshot index frozen at every
// re-fusion: point lookups and pre-ranked subject/source listings are O(1)
// and lock-free, and every response reports the matching snapshot and index
// versions (see the README's "Query path" section). /v1/score requests
// beyond -max-score-triples triples, and /v1/score or /v1/observe bodies
// beyond -max-body-bytes, are rejected with 413 and a structured error;
// raise -max-body-bytes for large batch ingestion.
//
// With -wal DIR every observation is appended to a write-ahead log and made
// durable BEFORE it is acknowledged: a crash (even SIGKILL or a power cut,
// under -wal-sync always) loses no acknowledged write — startup replays the
// log suffix the loaded store does not cover, and every successful persist
// truncates the segments the snapshot now covers. -wal-sync always (the
// default) group-commits concurrent writers into shared fsyncs; interval
// fsyncs every -wal-sync-interval (bounding power-cut loss to one interval);
// off leaves flushing to the OS. Without -wal an acknowledgment only
// promises the claim reached memory; the window since the last persist is
// lost on a crash. See the README's "Durability" section.
//
// Replication (see the README's "Replication" section): a -wal leader with
// -debug-addr ships its log from GET /repl/wal on the debug listener (plus a
// bootstrap snapshot on GET /repl/snapshot); a process started with
// -follow <leader-debug-url> becomes a read-only follower — it bootstraps
// from the leader snapshot when its local WAL is empty, pulls and re-verifies
// CRC'd log segments, applies them through the normal store path, rebuilds
// its own snapshots/indexes, and serves the read endpoints while answering
// /v1/observe with 403 pointing at the leader. Followers report lag on
// /healthz, /v1/refuse and the corrfused_repl_* metrics; a leader outage
// degrades to stale reads with backoff, never a follower crash. Set
// -wal-retain-segments on the leader so briefly-lagging followers catch up
// from retained segments instead of re-bootstrapping (HTTP 410).
//
// Admission control (all off by default; see the README's "Admission
// control" section): -rate-limit gives every API key (X-Api-Key header) a
// token bucket of -rate-burst depth and refuses over-budget /v1 requests
// with 429 + Retry-After; -request-timeout bounds each /v1 request's
// context, and the deadline propagates into WAL commit waits and rebuild
// stages (-request-timeout×10 for /v1/refuse); -max-inflight caps
// concurrently executing /v1 requests, shedding reads with 503 before
// durable writes — earlier still while fsyncs stall or a rebuild runs.
// Concurrent /v1/refuse requests always coalesce into one rebuild. Both
// listeners carry fixed, finite connection-level http.Server timeouts (the
// slowloris guard).
//
// The store is partitioned by subject hash into -shards N shards and every
// batch re-fusion trains the N shard models concurrently on -parallelism
// goroutines, swapping them in atomically as one snapshot; /metrics reports
// per-shard rebuild timings. The default -shards 1 is one shard: the
// unpartitioned model, through the same engine. -partial-rebuild (default on)
// makes re-fusions retrain only the shards whose subjects changed since the
// last snapshot, adopting every clean shard's model verbatim — model
// retraining, the dominant cost of a refresh, then tracks the change rate
// rather than the store size.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"corrfuse"
	"corrfuse/internal/obs"
	"corrfuse/internal/serve"
	"corrfuse/internal/store"
	"corrfuse/internal/wal"
)

// options collects the flag values that shape the service.
type options struct {
	storePath string
	addr      string
	method    string
	scope     string
	persist   string

	alpha     float64
	smoothing float64
	refresh   time.Duration

	parallelism     int
	shards          int
	partialRebuild  bool
	maxScoreTriples int
	maxBodyBytes    int64

	walDir          string
	walSync         string
	walSyncInterval time.Duration
	walSegmentBytes int64
	walRetain       int

	follow string

	logFormat string
	logLevel  string
	debugAddr string

	rateLimit      float64
	rateBurst      int
	requestTimeout time.Duration
	maxInFlight    int
}

// Connection-level http.Server timeouts, the same on both listeners.
const (
	httpReadHeaderTimeout = 10 * time.Second // slowloris guard
	httpReadTimeout       = 2 * time.Minute  // full-request read ceiling
	httpWriteTimeout      = 10 * time.Minute // must exceed the longest /v1/refuse rebuild
	httpIdleTimeout       = 2 * time.Minute  // keep-alive idle ceiling
)

// httpServer builds an http.Server with the connection-level timeouts
// applied. Both listeners (public and debug) go through here: a server with
// zero timeouts holds a connection open for as long as the peer cares to
// dribble bytes — the classic slowloris hole.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

func main() {
	var o options
	flag.StringVar(&o.storePath, "store", "", "input store (JSONL; required)")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.method, "method", "corr", "fusion method: precrec, corr, aggressive, elastic, union, 3est, ltm")
	flag.Float64Var(&o.alpha, "alpha", 0, "a-priori truth probability (0 = derive from labels)")
	flag.StringVar(&o.scope, "scope", "global", "accountability scope: global or subject")
	flag.Float64Var(&o.smoothing, "smoothing", 0, "add-k smoothing for quality estimation")
	flag.DurationVar(&o.refresh, "refresh", 30*time.Second, "background re-fusion period (0 disables)")
	flag.StringVar(&o.persist, "persist", "", "save the store (JSONL plus the binary cold-start snapshot next to it) to this path after re-fusions and on shutdown (default: -store path; \"-\" disables)")
	flag.IntVar(&o.parallelism, "parallelism", 0, "goroutines training shard models and scoring a batch (0 = GOMAXPROCS)")
	flag.IntVar(&o.shards, "shards", 1, "subject-hash shards for the batch model (1 = the unpartitioned model)")
	flag.BoolVar(&o.partialRebuild, "partial-rebuild", true, "retrain only dirty shards on re-fusions")
	flag.IntVar(&o.maxScoreTriples, "max-score-triples", serve.DefaultMaxScoreTriples, "max triples per /v1/score request (larger batches get 413)")
	flag.Int64Var(&o.maxBodyBytes, "max-body-bytes", serve.DefaultMaxBodyBytes, "max request body bytes for /v1/score and /v1/observe (larger bodies get 413)")
	flag.StringVar(&o.walDir, "wal", "", "write-ahead log directory: observes are durable before acknowledged (empty disables)")
	flag.StringVar(&o.walSync, "wal-sync", wal.SyncAlways, "WAL fsync policy: always (group commit per ack), interval, off")
	flag.DurationVar(&o.walSyncInterval, "wal-sync-interval", wal.DefaultSyncInterval, "WAL fsync period under -wal-sync interval")
	flag.Int64Var(&o.walSegmentBytes, "wal-segment-bytes", wal.DefaultSegmentBytes, "rotate WAL segments past this size")
	flag.IntVar(&o.walRetain, "wal-retain-segments", 0, "keep the newest N snapshot-covered WAL segments across truncation (set on leaders so lagging followers catch up without a re-bootstrap)")
	flag.StringVar(&o.follow, "follow", "", "replicate from this leader's debug/admin base URL (follower mode: read-only API, requires -wal; bootstraps from the leader snapshot when the local WAL is empty)")
	flag.StringVar(&o.logFormat, "log-format", "text", "log format: text or json (one object per line)")
	flag.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof, /debug/traces and /metrics on this separate address (empty disables; bind to localhost)")
	flag.Float64Var(&o.rateLimit, "rate-limit", 0, "sustained /v1 requests per second per API key (X-Api-Key header; keyless requests share one bucket; 0 disables)")
	flag.IntVar(&o.rateBurst, "rate-burst", 0, "token-bucket burst on top of -rate-limit (0 = twice the rate)")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 0, "per-request deadline budget for /v1 endpoints, propagated into WAL commits and rebuilds; /v1/refuse gets 10x (0 disables)")
	flag.IntVar(&o.maxInFlight, "max-inflight", 0, "max concurrently executing /v1 requests; past it reads are shed with 503 before durable writes (0 disables)")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, o, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fused:", err)
		os.Exit(1)
	}
}

// run builds and serves the fusion service until ctx is canceled. When
// ready is non-nil it receives the bound listen address once the server
// accepts connections (used by tests to pick a free port with -addr :0).
func run(ctx context.Context, o options, ready chan<- string) error {
	if o.storePath == "" {
		return fmt.Errorf("-store is required")
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", o.shards)
	}
	level, err := obs.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level, o.logFormat)

	if o.follow != "" {
		if o.walDir == "" {
			return fmt.Errorf("-follow requires -wal: the follower's own log is what replays on restart and reports the replication position")
		}
		// First boot of a follower: pull the leader's store snapshot and pin
		// the local WAL to the first uncovered sequence. With existing local
		// history the normal replay below resumes from it.
		if _, err := bootstrapFollower(ctx, o, logger); err != nil {
			return err
		}
	}

	// Cold start: prefer the mmap-able binary snapshot next to the JSONL
	// store; a missing one quietly parses JSONL, a corrupt one falls back
	// loudly (the reason lands in the log, /healthz and the
	// corrfused_snapshot_load_fallback metric).
	st, loadInfo, err := store.LoadPreferred(o.storePath)
	if err != nil {
		return err
	}
	if loadInfo.FallbackReason != "" {
		logger.Warn(ctx, "binary snapshot rejected, loaded JSONL store",
			"store", o.storePath, "reason", loadInfo.FallbackReason)
	}
	logger.Info(ctx, "store loaded", "store", o.storePath, "format", loadInfo.Format,
		"bytes", loadInfo.Bytes, "triples", st.Len(), "duration", loadInfo.Duration.String())
	if st.Len() == 0 {
		return fmt.Errorf("store %s is empty", o.storePath)
	}

	cfg := serve.Config{
		SnapshotLoad:      &loadInfo,
		RefreshInterval:   o.refresh,
		MaxScoreTriples:   o.maxScoreTriples,
		MaxBodyBytes:      o.maxBodyBytes,
		WALDir:            o.walDir,
		WALSync:           o.walSync,
		WALSyncInterval:   o.walSyncInterval,
		WALSegmentBytes:   o.walSegmentBytes,
		WALRetainSegments: o.walRetain,
		ReadOnly:          o.follow != "",
		LeaderURL:         o.follow,
		Logger:            logger,
		RateLimit:         o.rateLimit,
		RateBurst:         o.rateBurst,
		RequestTimeout:    o.requestTimeout,
		MaxInFlight:       o.maxInFlight,
		PartialRebuild:    o.partialRebuild,
	}
	switch o.persist {
	case "":
		cfg.PersistPath = o.storePath
	case "-":
		cfg.PersistPath = ""
	default:
		cfg.PersistPath = o.persist
	}
	cfg.Options = corrfuse.Options{
		Smoothing:   o.smoothing,
		Parallelism: o.parallelism,
		Shards:      o.shards,
	}
	if o.walDir != "" && cfg.PersistPath == "" {
		return fmt.Errorf("-wal requires a persist path (WAL truncation rides the snapshot save): drop -persist - or point -persist somewhere")
	}
	if cfg.Options.Method, err = corrfuse.ParseMethod(o.method); err != nil {
		return err
	}
	switch o.scope {
	case "global", "":
		cfg.PenalizeSilence = true
	case "subject":
		cfg.SubjectScope = true
	default:
		return fmt.Errorf("unknown scope %q", o.scope)
	}
	if cfg.Options.Alpha = o.alpha; o.alpha == 0 {
		cfg.Options.Alpha = corrfuse.DeriveAlpha(st.CountLabels())
	}

	srv, err := serve.New(st, cfg)
	if err != nil {
		return err
	}

	// Optional debug listener: pprof profiles, the trace ring buffer and a
	// metrics mirror on their own address, so profiling and introspection
	// never ride the public listener.
	var ds *http.Server
	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/traces", srv.TracesHandler())
		dmux.Handle("/metrics", srv.MetricsHandler())
		if o.follow == "" && srv.WAL() != nil {
			// Leaders ship their WAL (and a bootstrap snapshot) from the
			// debug listener; followers don't re-ship (no chaining yet).
			if err := mountLeader(ctx, dmux, srv, logger); err != nil {
				return err
			}
			logger.Info(ctx, "replication leader endpoints up", "addr", dln.Addr().String())
		}
		ds = httpServer(dmux)
		// Replication long-polls ride this listener and hold connections
		// open by design; deriving request contexts from ctx makes them
		// unwind at shutdown instead of stalling Shutdown's drain.
		ds.BaseContext = func(net.Listener) context.Context { return ctx }
		go ds.Serve(dln)
		logger.Info(ctx, "debug listener up", "addr", dln.Addr().String())
	}

	if o.follow != "" {
		if err := startFollower(ctx, o, srv, logger); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hs := httpServer(srv.Handler())
	srv.Start()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	bi := obs.GetBuildInfo()
	logger.Info(ctx, "fused: serving",
		"triples", st.Len(), "addr", ln.Addr().String(), "shards", o.shards,
		"version", bi.Version, "commit", bi.Commit, "go", bi.GoVersion)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info(ctx, "fused: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ds != nil {
		ds.Shutdown(shutCtx)
	}
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return srv.Close(shutCtx)
}
