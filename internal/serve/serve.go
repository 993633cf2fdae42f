// Package serve is the online fusion service: it exposes a triple store and
// a trained fusion model over HTTP/JSON, keeps probabilities fresh under a
// stream of arriving claims, and periodically re-fuses the accumulated data
// with the full correlation-aware batch model.
//
// Two models cooperate across one boundary:
//
//   - The snapshot: a batch corrfuse.Fuser (any corrfuse.Method, typically
//     a PrecRecCorr variant) trained over the whole store, with the dataset
//     it was trained on and the index of its results. It is immutable,
//     reached through an atomic pointer, and the only record of who
//     provided what at the capture and of every batch answer: no read
//     consults the store's write-back copy.
//
//   - The overlay: the snapshot model's online scorer (Fuser.Online),
//     empty at each swap and holding only the triples claimed since the
//     snapshot's capture. A triple's first such claim starts from its
//     capture-time providers, and every claim re-scores the triple's
//     provider pattern with the snapshot's own model, so queries between
//     batch refreshes reflect the newest observations at once. Under global
//     scope an unlabelled claim from a known source moves no parameter, so
//     the live answer is the one the next rebuild gives. applyLive is the
//     one path that feeds the overlay; freshestLocked is the one place that
//     decides which side answers.
//
// A background refresher (and POST /v1/refuse) rebuilds the batch model
// from the accumulated store, writes its results back for the next persist
// (store.SetFusionRows, by capture row, so demotions stick), derives a fresh
// empty overlay, replays onto it the journal of claims that raced the build,
// and swaps the new snapshot in atomically. A store data-version counter
// lets the refresher skip rebuilds when nothing that feeds the model has
// changed.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"corrfuse"
	"corrfuse/internal/index"
	"corrfuse/internal/obs"
	"corrfuse/internal/serve/middleware"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
	"corrfuse/internal/wal"
)

// Default /v1/score bulk request limits; see Config.MaxScoreTriples and
// Config.MaxBodyBytes.
const (
	DefaultMaxScoreTriples = 1024
	DefaultMaxBodyBytes    = 1 << 20
)

// Config configures a Server.
type Config struct {
	// Options are the fusion options for batch (re)builds. Supervised
	// methods (the default PrecRecCorr) require gold labels in the store.
	// Every rebuild trains one model over the whole store and scores it on
	// Options.Parallelism goroutines; Options.Shards is ignored.
	Options corrfuse.Options

	// SubjectScope selects subject-scope accountability; the scope index
	// is re-derived from the accumulated data at every rebuild. When
	// false, Options.Scope (default global) is used as-is.
	SubjectScope bool

	// PartialRebuild is accepted and ignored: every rebuild retrains the
	// whole model (a refresh over an unmoved store version is skipped
	// instead). It remains because the frozen bench/ package sets it.
	PartialRebuild bool

	// PenalizeSilence is accepted and ignored: the overlay scores with the
	// snapshot's model under the scope it was trained with. It remains
	// because the frozen bench/ package sets it.
	PenalizeSilence bool

	// RefreshInterval is the period of the background batch re-fusion.
	// Zero disables the refresher; re-fusion then only happens on
	// POST /v1/refuse.
	RefreshInterval time.Duration

	// MaxScoreTriples caps the number of triples accepted by one /v1/score
	// request; larger batches are rejected with 413 and a structured
	// error. 0 means DefaultMaxScoreTriples.
	MaxScoreTriples int

	// MaxBodyBytes caps the request body size in bytes for /v1/score and
	// /v1/observe; larger bodies are rejected with 413 and a structured
	// error. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// PersistPath, when non-empty, is the JSONL file the store is saved
	// to (store.Persist) after every rebuild and on Close, together with
	// the mmap-able binary snapshot next to it that a restart prefers for
	// millisecond cold starts.
	PersistPath string

	// SnapshotLoad, when non-nil, records how the store handed to New was
	// loaded (format, size, wall time, fallback reason) — cmd/fused passes
	// what store.LoadPreferred reported. /healthz and the
	// corrfused_snapshot_load_* metric families expose it; nil suppresses
	// both.
	SnapshotLoad *store.LoadInfo

	// WALDir, when non-empty, enables the durable write-ahead log: every
	// observation is appended (and, per WALSync, fsynced) BEFORE it is
	// acknowledged, New replays any log suffix the loaded store does not
	// cover (crash recovery), and each successful persist truncates the
	// segments the snapshot now covers. With an empty WALDir an
	// acknowledgment only promises the claim reached memory; the
	// inter-persist window is lost on a crash. WALDir requires
	// PersistPath: truncation rides the persist, so a WAL without
	// snapshots would grow (and replay) without bound — New rejects the
	// combination.
	WALDir string

	// WALSync is the WAL fsync policy: wal.SyncAlways (default — ack
	// means fsynced, group-committed across concurrent writers),
	// wal.SyncInterval (fsync on a timer; a power cut may lose up to one
	// interval) or wal.SyncOff (the OS decides).
	WALSync string

	// WALSyncInterval is the fsync period under wal.SyncInterval
	// (default 100ms).
	WALSyncInterval time.Duration

	// WALSegmentBytes rotates WAL segments past this size (default 4 MiB).
	WALSegmentBytes int64

	// WALRetainSegments keeps the newest N snapshot-covered WAL segments
	// across truncation instead of deleting them all. A replication leader
	// sets it so a briefly-lagging follower can still fetch recent history
	// instead of being forced into a full re-bootstrap (HTTP 410). 0 (the
	// default) truncates everything the snapshot covers.
	WALRetainSegments int

	// ReadOnly makes the server a replication follower: /v1/observe is
	// refused with a structured 403 pointing at LeaderURL, and ingestion
	// happens exclusively through ApplyReplicated. The read endpoints
	// (/v1/triple, /v1/subject, /v1/source, /v1/score) and /v1/refuse
	// (a local re-fusion of replicated data) serve normally.
	ReadOnly bool

	// LeaderURL names the leader a ReadOnly follower replicates from; it
	// is included in write-rejection errors and health output.
	LeaderURL string

	// Logger, when non-nil, is the logger every operational line and
	// slow-request record goes through, the latter carrying the request's
	// trace ID. Nil silences logging.
	Logger *slog.Logger

	// TraceBufferSize is the capacity of the /debug/traces ring buffer of
	// recent request and refresh traces. 0 means 256, the only value in
	// use: cmd/fused no longer sets it, and the field outlives its flag
	// only because the frozen bench/ still names it.
	TraceBufferSize int

	// RequestTimeout, when positive, is the per-request deadline budget:
	// each /v1 request's context is bounded by it, and the deadline
	// propagates into ingest validation, WAL commit waits and rebuild
	// stages — a canceled or expired request stops consuming CPU and
	// fsync slots at the next checkpoint. /v1/refuse gets refuseTimeoutFactor
	// times the budget (a forced re-fusion is legitimately the slowest
	// call in the API). Zero disables deadlines.
	RequestTimeout time.Duration

	// MaxInFlight, when positive, caps concurrently executing /v1
	// requests. Past the cap, requests are shed with 503: reads
	// (/v1/score, /v1/subject, /v1/source, /v1/triple) are refused while
	// slots remain reserved for durable writes, and refused earlier still
	// while the service is under pressure (WAL fsync waits stalling, or a
	// rebuild in progress) — recomputable load sheds first, acknowledged
	// durability last. Zero disables shedding.
	MaxInFlight int
}

// refuseTimeoutFactor scales Config.RequestTimeout into the /v1/refuse
// deadline budget: a forced batch re-fusion is expected to outlast any
// normal request by about this much.
const refuseTimeoutFactor = 10

// slowRequestThreshold is how slow a request must be to earn a structured
// warning carrying its trace ID. (The /debug/traces ring retains every
// trace, so any X-Corrfused-Trace-Id can be found there; ?min_ms= filters
// at read time.)
const slowRequestThreshold = time.Second

// Pressure signal constants: a WAL commit wait at least pressureCommitWait
// long marks the service under pressure for the next pressureWindow, and
// so does a rebuild in progress. Under pressure the load shedder halves
// the read admission threshold (see Config.MaxInFlight).
const (
	pressureCommitWait = 50 * time.Millisecond
	pressureWindow     = time.Second
)

// observation is a journaled ingest: a claim applied to the overlay that
// the next rebuild must not lose when its store capture, taken concurrently
// with ingestion, missed it.
type observation struct {
	source string
	t      triple.Triple
}

// snapshot is one immutable generation of the batch model. Readers load it
// through an atomic pointer and use it without locks.
type snapshot struct {
	// fuser is the trained batch model.
	fuser *corrfuse.Fuser
	// data is the dataset the fuser was trained on; it maps source names
	// and triples to the IDs both models use. It is immutable.
	data *corrfuse.Dataset
	// capture is the store capture data came from: its rows write the
	// results back, and the next rebuild derives its capture from it.
	capture *store.Captured
	// idx is the immutable fused-result index built from this snapshot's
	// batch results: triple-ID point reads and pre-ranked per-subject and
	// per-source slices, all O(1) and lock-free. idx.Version() always
	// equals version — responses expose both so readers can prove they
	// never mixed generations.
	idx *index.Index
	// version is the store data version the snapshot was captured at.
	version uint64
	// seq numbers snapshots 1, 2, … ; /healthz and /metrics expose it.
	seq      uint64
	builtAt  time.Time
	triples  int
	accepted int
}

// Server is the online fusion service. Build one with New, mount Handler,
// call Start to launch the background refresher and Close to shut down.
type Server struct {
	cfg   Config
	store *store.Store
	snap  atomic.Pointer[snapshot]

	// live is the overlay on the current snapshot: what was claimed since
	// its capture, and nothing the snapshot already records. Mutations
	// (applyLive, the swap) take the write lock, queries the read lock, and
	// the snapshot pointer is only stored under the write lock, so a reader
	// holding either sees a matching snapshot/overlay pair.
	live struct {
		sync.RWMutex
		// inc scores the triples claimed since the capture with the
		// snapshot's model; it starts empty at every swap. nil means
		// batch-only: the method has no trained model, or a scorer failed — corrfused_online_disabled reads this
		// field, and the next rebuild derives a fresh one.
		inc corrfuse.OnlineScorer
		// data is the current snapshot's dataset: inc's source IDs refer
		// to it, and a triple's capture-time providers are read from it.
		data *corrfuse.Dataset
		// journal is the overlay's input log: every claim since the last
		// capture, in arrival order, with or without a WAL. A swap replays
		// the suffix that raced its build.
		journal []observation
		// unknown holds source names seen in ingests but absent from
		// the current quality model; their claims reach the store and
		// the journal, and join the models at the next rebuild.
		unknown map[string]bool
	}

	// rebuildMu serializes batch rebuilds (refresher ticks and /v1/refuse).
	rebuildMu sync.Mutex

	// rebuildActive is 1 while a rebuild holds rebuildMu: one of the two
	// pressure signals the load shedder reads (the other is a recent slow
	// WAL commit wait, slowCommitAt).
	rebuildActive atomic.Bool

	// slowCommitAt is the unix-nano timestamp of the last WAL commit wait
	// that crossed pressureCommitWait (0: never). Within pressureWindow of
	// it the service counts as under pressure and sheds reads earlier.
	slowCommitAt atomic.Int64

	// Admission control (nil members when the corresponding Config knob is
	// zero): the shedder caps in-flight work shedding reads before durable
	// writes, and refuseFlight coalesces concurrent /v1/refuse rebuilds
	// into one.
	shedder      *middleware.Shedder
	refuseFlight middleware.Flight

	// wal is the durable write-ahead log, nil when Config.WALDir is empty.
	// Ingests append to it before they are acknowledged; persist()
	// truncates the segments each saved snapshot covers.
	wal *wal.WAL

	// replStatus, when set (followers only), reports the replication
	// position for /healthz, /v1/refuse and the corrfused_repl_* metric
	// families (which are suppressed while it is nil).
	replStatus atomic.Pointer[replStatusFn]
	// walRecovered is the number of acknowledged observations New replayed
	// from the WAL into the store at startup (crash recovery).
	walRecovered int

	// closing flips at the start of Close, before the final persist: from
	// then on observes are refused (503) unless the WAL can still make
	// them durable — an ack during shutdown must never be lost.
	closing atomic.Bool

	// persistMu serializes persist() (refresher ticks, /v1/refuse, Close).
	// Without it a slow Save racing a newer one could rename an OLDER
	// store snapshot over the target after the newer persist already
	// truncated the WAL segments covering the difference — losing
	// acknowledged, fsynced writes.
	persistMu sync.Mutex

	m metrics

	// Observability (built by initObs before the WAL opens and the initial
	// rebuild runs, so every instrument exists for the server's whole life).
	reg          *obs.Registry
	logger       *slog.Logger
	traces       *obs.TraceRecorder
	reqCounts    *obs.CounterVec   // corrfused_requests_total{endpoint}
	reqHist      *obs.HistogramVec // corrfused_request_seconds{endpoint}
	stageHist    *obs.HistogramVec // corrfused_request_stage_seconds{stage}
	respCodes    *obs.CounterVec   // corrfused_responses_total{code}
	walWait      *obs.Histogram    // corrfused_wal_commit_wait_seconds
	rebuildStage *obs.HistogramVec // corrfused_rebuild_stage_seconds{stage}

	// testOnlineHook, when non-nil, intercepts the online scorer derived
	// during a rebuild. Tests use it to inject scorers whose Observe fails
	// on a replayed or ingested claim; production code never sets it.
	testOnlineHook func(corrfuse.OnlineScorer, error) (corrfuse.OnlineScorer, error)

	// testStageHook, when non-nil, runs at the end of every rebuild stage
	// with the stage's name, and with "persist" as a persist begins. Tests
	// use it to gate or slow a stage (proving deadline propagation,
	// single-flight coalescing and the persist overlap deterministically);
	// production code never sets it.
	testStageHook func(stage string)

	// Effective /v1/score limits (Config values after defaulting).
	maxScoreTriples int
	maxBodyBytes    int64

	mux     *http.ServeMux
	handler http.Handler
	started time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a Server over st and trains the initial batch snapshot.
func New(st *store.Store, cfg Config) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	s := &Server{
		cfg:             cfg,
		store:           st,
		maxScoreTriples: cfg.MaxScoreTriples,
		maxBodyBytes:    cfg.MaxBodyBytes,
		started:         time.Now(),
		stop:            make(chan struct{}),
		done:            make(chan struct{}),
	}
	if s.maxScoreTriples <= 0 {
		s.maxScoreTriples = DefaultMaxScoreTriples
	}
	if s.maxBodyBytes <= 0 {
		s.maxBodyBytes = DefaultMaxBodyBytes
	}
	s.live.unknown = make(map[string]bool)
	s.initObs()
	if cfg.WALDir != "" && cfg.PersistPath == "" {
		return nil, fmt.Errorf("serve: WALDir requires PersistPath: WAL truncation rides the persist, so the log would grow and replay without bound")
	}
	if cfg.WALDir != "" {
		// Open the log and replay the acknowledged observations the loaded
		// store does not cover — the writes a crash would otherwise have
		// dropped. Replay precedes the initial fusion below, so the first
		// snapshot already scores the recovered claims; replaying a record
		// the store does cover is a no-op (Put merges provenance).
		walOpts := wal.Options{
			Sync:           cfg.WALSync,
			SyncInterval:   cfg.WALSyncInterval,
			SegmentBytes:   cfg.WALSegmentBytes,
			RetainSegments: cfg.WALRetainSegments,
			Logger:         s.logger,
			OnCommitWait:   s.onCommitWait,
		}
		begin := time.Now()
		w, recs, err := wal.Open(cfg.WALDir, walOpts)
		if err != nil {
			return nil, fmt.Errorf("serve: wal: %w", err)
		}
		for _, r := range recs {
			st.Put(store.Entry{
				Triple:  triple.Triple{Subject: r.Subject, Predicate: r.Predicate, Object: r.Object},
				Sources: []string{r.Source},
				Label:   r.Label,
			})
		}
		s.wal = w
		s.walRecovered = len(recs)
		if len(recs) > 0 {
			s.logger.Info("serve: wal: recovered acknowledged observations", "records", len(recs), "throughSeq", recs[len(recs)-1].Seq,
				"duration", time.Since(begin))
		}
	}
	//lint:ignore ctxflow startup fusion runs before any request exists; New has no caller deadline to inherit
	if _, _, err := s.rebuild(context.Background(), true, false); err != nil {
		if s.wal != nil {
			//lint:ignore errswallow best-effort cleanup; the initial-fusion error is returned
			s.wal.Close()
		}
		return nil, fmt.Errorf("serve: initial fusion: %w", err)
	}
	if cfg.MaxInFlight > 0 {
		s.shedder = middleware.NewShedder(cfg.MaxInFlight, s.underPressure)
	}
	s.mux = http.NewServeMux()
	s.routes()
	s.handler = s.instrument(s.mux)
	return s, nil
}

// onCommitWait receives every WAL commit's durability wait: it feeds the
// commit-wait histogram and stamps the pressure signal when the wait crosses
// pressureCommitWait — fsync stalls are the moment to start shedding
// recomputable reads in favor of acknowledged writes.
func (s *Server) onCommitWait(d time.Duration) {
	s.walWait.Observe(d)
	if d >= pressureCommitWait {
		s.slowCommitAt.Store(time.Now().UnixNano())
	}
}

// underPressure reports whether the service should shed load early: a
// rebuild is holding the refresh machinery, or a WAL commit stalled on
// fsync within the last pressureWindow.
func (s *Server) underPressure() bool {
	if s.rebuildActive.Load() {
		return true
	}
	if at := s.slowCommitAt.Load(); at != 0 && time.Now().UnixNano()-at < int64(pressureWindow) {
		return true
	}
	return false
}

// Handler returns the HTTP handler serving the v1 API, wrapped in the
// instrumentation middleware (tracing, latency histograms, response-status
// accounting).
func (s *Server) Handler() http.Handler { return s.handler }

// TracesHandler returns the /debug/traces handler (the ring buffer of recent
// request and refresh traces as JSON). It is also routed on the main mux;
// this accessor lets cmd/fused expose it on the separate debug listener next
// to pprof.
func (s *Server) TracesHandler() http.Handler { return s.traces.Handler() }

// MetricsHandler returns the /metrics handler, for mounting on a separate
// debug listener.
func (s *Server) MetricsHandler() http.Handler { return http.HandlerFunc(s.handleMetrics) }

// Start launches the background refresher (if RefreshInterval > 0). It is
// safe to call more than once; only the first call has an effect.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		if s.cfg.RefreshInterval > 0 {
			go s.refresher()
		} else {
			close(s.done)
		}
	})
}

// Close stops the refresher, saves the store a final time and closes the
// WAL. It is safe to call more than once, and also without a prior Start;
// the context bounds the wait for the refresher.
//
// Shutdown ordering for in-flight ingests: closing flips before the final
// persist, and from then on handleObserve refuses new observations (503)
// unless the WAL can still make them durable. An observation the WAL
// accepted after the final persist's capture stays in the log (truncation
// only covers the captured prefix) and is replayed on the next startup —
// acknowledged never means lost, even during shutdown.
func (s *Server) Close(ctx context.Context) error {
	s.closing.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	// If Start never ran, consume its Once so no refresher can launch
	// later and there is nothing to wait for.
	s.startOnce.Do(func() { close(s.done) })
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	err := s.persist()
	if s.wal != nil {
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// Snapshot returns the sequence number, store version and age of the
// current batch snapshot.
func (s *Server) Snapshot() (seq, version uint64, age time.Duration) {
	sn := s.snap.Load()
	return sn.seq, sn.version, time.Since(sn.builtAt)
}

// persist saves the store (store.Persist owns the file formats, what runs
// at once and what makes truncation safe) and then truncates the WAL
// segments the saved state covers. The WAL sequence is captured BEFORE the
// saves: every record at or below the capture finished its Append, and
// ingest writes the store before appending, so the saved state is
// guaranteed to contain all of them — truncating through the capture can
// never drop an acknowledged observation the save missed. That holds when a
// rebuild starts persist right after its write-back: the index build and
// swap running beside the saves never write the store, and a claim ingested
// after the capture has a higher sequence, so the log keeps it.
// A failure of either save is counted (corrfused_persist_failures_total, at
// most once per call) and the latest error is surfaced in /v1/refuse so
// operators can alert on a service that can no longer save.
func (s *Server) persist() error {
	if s.cfg.PersistPath == "" {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.testStageHook != nil {
		s.testStageHook("persist")
	}
	var capSeq uint64
	if s.wal != nil {
		capSeq = s.wal.Seq()
	}
	res, err := s.store.Persist(s.cfg.PersistPath)
	if res.SnapshotErr != nil {
		s.logger.Error("serve: persist: binary snapshot failed", "err", res.SnapshotErr)
	} else {
		s.rebuildStage.With("snapshot_save_binary").Observe(res.SnapshotTime)
	}
	if failed := errors.Join(err, res.SnapshotErr); failed != nil {
		s.m.persistFailures.Add(1)
		s.m.lastPersistErr.Store(failed.Error())
	} else {
		s.m.lastPersistErr.Store("")
	}
	if err != nil {
		return fmt.Errorf("serve: persist: %w", err)
	}
	s.rebuildStage.With("snapshot_save_jsonl").Observe(res.JSONLTime)
	if s.wal != nil {
		if err := s.wal.TruncateThrough(capSeq); err != nil {
			// Non-fatal: an untruncated segment only costs replay time on
			// the next startup, never correctness (replay is idempotent).
			s.logger.Warn("serve: wal truncate failed", "err", err)
		}
	}
	return nil
}

// lastPersistError returns the most recent persist failure, "" after a
// successful save (or before any).
func (s *Server) lastPersistError() string {
	if v, ok := s.m.lastPersistErr.Load().(string); ok {
		return v
	}
	return ""
}
