package serve

import (
	"log/slog"
	"net/http"
	"sync/atomic"

	"corrfuse/internal/obs"
	"corrfuse/internal/repl"
	"corrfuse/internal/store"
	"corrfuse/internal/wal"
)

// metrics are the service's operational counters. The exposition-facing
// counters are registry-backed (declared once, emitted by Registry.WriteTo);
// the rest are internal state some registered closure reads at scrape time.
type metrics struct {
	// badRequests counts responses with a 4xx status. It is driven by the
	// instrumentation middleware's status recorder, so it covers every 4xx
	// the service emits — including the mux's own 404/405 responses, which
	// the old per-handler accounting silently missed.
	badRequests *obs.Counter

	observations *obs.Counter // claims ingested
	rebuilds     *obs.Counter

	// Admission control: shed counts 503s by endpoint, and refuseCoalesced
	// counts /v1/refuse requests that joined another request's rebuild
	// instead of starting their own.
	shed            *obs.CounterVec
	refuseCoalesced *obs.Counter

	// encodeFailures counts responses whose JSON encoding failed. The
	// encode now runs into a pooled buffer before the status line is
	// written, so a failure is answered with a clean 500 instead of a
	// truncated 2xx body.
	encodeFailures *obs.Counter

	// persistFailures counts store saves that failed; lastPersistErr holds
	// the latest failure message ("" after a successful save) for
	// /v1/refuse, so operators can alert on a service that can no longer
	// persist instead of finding out from a log line.
	persistFailures *obs.Counter
	lastPersistErr  atomic.Value
}

// endpoints are the routed endpoint names; their request counters and
// latency histograms are pre-created so every endpoint appears in /metrics
// from the first scrape, hit or not (dashboards and alerts can rely on the
// series existing).
var endpoints = []string{
	"observe", "triple", "subject", "source", "score", "refuse",
	"healthz", "metrics", "traces",
}

// shedEndpoints are the endpoints behind the admission gate; their shed
// counters are pre-created for the same dashboards-can-rely-on-it reason.
var shedEndpoints = []string{
	"observe", "triple", "subject", "source", "score", "refuse",
}

// initObs builds the metric registry, trace recorder and logger. It runs
// before the WAL opens (the commit-wait histogram feeds the WAL's hook) and
// before the initial rebuild (whose stages are already timed), so every
// instrument exists for the server's whole life.
//
// Families are registered in presentation order; HELP/TYPE headers are
// emitted by Registry.WriteTo, declared exactly once here.
func (s *Server) initObs() {
	s.traces = obs.NewTraceRecorder(s.cfg.TraceBufferSize)
	if s.logger = s.cfg.Logger; s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}

	r := obs.NewRegistry()
	s.reg = r

	obs.RegisterBuildInfo(r, "corrfused_build_info")

	s.reqCounts = r.CounterVec("corrfused_requests_total", "Requests served, by endpoint.", "endpoint")
	s.reqHist = r.HistogramVec("corrfused_request_seconds", "Request latency by endpoint.", "endpoint", obs.DefBuckets)
	for _, e := range endpoints {
		s.reqCounts.With(e)
		s.reqHist.With(e)
	}
	s.respCodes = r.CounterVec("corrfused_responses_total", "Responses sent, by HTTP status code (includes router 404/405s).", "code")
	s.m.badRequests = r.Counter("corrfused_bad_requests_total", "Requests rejected with a 4xx status.")
	s.stageHist = r.HistogramVec("corrfused_request_stage_seconds", "Request-stage latency (decode, ingest, wal_commit, index_lookup, score).", "stage", obs.FineBuckets)

	s.m.observations = r.Counter("corrfused_observations_total", "Claims ingested via /v1/observe.")

	// Admission control. The families exist (at zero) even when the knobs
	// are disabled, so dashboards and alerts can rely on the series.
	s.m.shed = r.CounterVec("corrfused_shed_total", "Requests shed with 503 by the max-in-flight gate, by endpoint (reads shed before durable writes).", "endpoint")
	for _, e := range shedEndpoints {
		s.m.shed.With(e)
	}
	r.GaugeFunc("corrfused_inflight", "Requests currently executing inside the admission gate (0 when -max-inflight is disabled).",
		func() float64 {
			if s.shedder == nil {
				return 0
			}
			return float64(s.shedder.InFlight())
		})
	s.m.refuseCoalesced = r.Counter("corrfused_refuse_coalesced_total", "Concurrent /v1/refuse requests that joined an in-flight rebuild instead of starting another.")
	s.m.encodeFailures = r.Counter("corrfused_response_encode_failures_total", "Responses whose JSON encoding failed (answered with a 500; the encode happens before any bytes hit the wire).")
	r.SampleFunc("corrfused_obs_encode_failures_total", "JSON encodings that failed inside the observability layer itself (broken /debug/traces writes).", "counter",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.traces.EncodeFailures())}} })

	snap := func(f func(sn *snapshot) float64) func() float64 {
		return func() float64 { return f(s.snap.Load()) }
	}
	r.GaugeFunc("corrfused_snapshot_seq", "Sequence number of the live batch snapshot.",
		snap(func(sn *snapshot) float64 { return float64(sn.seq) }))
	r.GaugeFunc("corrfused_store_triples", "Distinct triples in the store.",
		func() float64 { return float64(s.store.Len()) })
	r.GaugeFunc("corrfused_ingest_lag", "Data mutations not yet reflected in the batch snapshot.",
		func() float64 {
			// Load the snapshot before the store version: a concurrent swap
			// then overstates the lag for one scrape, never understates it
			// (the gauge must not go negative, it is emitted unsigned).
			sn := s.snap.Load()
			return float64(s.store.Version() - sn.version)
		})

	// The overlay's gauges read its fields under the live read lock.
	live := func(f func() float64) func() float64 {
		return func() float64 {
			s.live.RLock()
			defer s.live.RUnlock()
			return f()
		}
	}
	r.GaugeFunc("corrfused_live_triples", "Triples claimed since the live snapshot's capture (what the live scorer holds on top of it).",
		live(func() float64 {
			if s.live.inc == nil {
				return 0
			}
			return float64(s.live.inc.Len())
		}))
	r.GaugeFunc("corrfused_online_disabled", "1 while the service runs batch-only (no live scorer: an unsupervised method, a failed scorer or a follower re-bootstrap — the log says which), 0 when live scoring is up.",
		live(func() float64 {
			if s.live.inc == nil {
				return 1
			}
			return 0
		}))

	s.m.rebuilds = r.Counter("corrfused_rebuilds_total", "Batch re-fusions performed.")
	s.rebuildStage = r.HistogramVec("corrfused_rebuild_stage_seconds", "Re-fusion stage wall time (capture, train, freeze, writeback, index_build, online_seed, swap, snapshot_save_binary, snapshot_save_jsonl).", "stage", obs.DefBuckets)
	s.m.persistFailures = r.Counter("corrfused_persist_failures_total", "Persists in which a store save failed (either format; a binary-snapshot failure never loses data, the JSONL store still saves).")

	// How the store was loaded at startup (suppressed unless cmd/fused
	// recorded it via Config.SnapshotLoad).
	loadSample := func(name, help string, f func(li store.LoadInfo) float64) {
		r.SampleFunc(name, help, "gauge", func() []obs.Sample {
			li := s.cfg.SnapshotLoad
			if li == nil {
				return nil
			}
			return []obs.Sample{{Value: f(*li)}}
		})
	}
	loadSample("corrfused_snapshot_load_seconds", "Wall time the startup store load took (the cold-start cost this process paid).",
		func(li store.LoadInfo) float64 { return li.Duration.Seconds() })
	loadSample("corrfused_snapshot_load_bytes", "Size of the file the store was loaded from at startup.",
		func(li store.LoadInfo) float64 { return float64(li.Bytes) })
	loadSample("corrfused_snapshot_load_binary", "1 when startup loaded the CFSN binary snapshot, 0 when it parsed the JSONL store.",
		func(li store.LoadInfo) float64 {
			if li.Format == store.FormatBinary {
				return 1
			}
			return 0
		})
	loadSample("corrfused_snapshot_load_fallback", "1 when a binary snapshot existed but failed validation and startup fell back to the JSONL store (the reason is in /healthz).",
		func(li store.LoadInfo) float64 {
			if li.FallbackReason != "" {
				return 1
			}
			return 0
		})

	s.walWait = r.Histogram("corrfused_wal_commit_wait_seconds", "Wall time Commit callers spent waiting for durability (group-commit fsync wait, or buffer flush).", obs.DefBuckets)
	// The WAL families are suppressed — header included — when no WAL is
	// configured: a nil []Sample from the closure drops the family for that
	// scrape, replacing the old hand-written `if s.wal != nil` block.
	walGauge := func(name, help string, f func(wal wal.Stats) float64) {
		r.SampleFunc(name, help, "gauge", func() []obs.Sample {
			if s.wal == nil {
				return nil
			}
			return []obs.Sample{{Value: f(s.wal.Stats())}}
		})
	}
	walGauge("corrfused_wal_seq", "Last assigned WAL sequence number.",
		func(st wal.Stats) float64 { return float64(st.Seq) })
	walGauge("corrfused_wal_durable_seq", "Highest WAL sequence number covered by an fsync.",
		func(st wal.Stats) float64 { return float64(st.DurableSeq) })
	walGauge("corrfused_wal_segments", "Live WAL segment files.",
		func(st wal.Stats) float64 { return float64(st.Segments) })
	walGauge("corrfused_wal_bytes", "Total bytes across live WAL segments.",
		func(st wal.Stats) float64 { return float64(st.Bytes) })
	r.SampleFunc("corrfused_wal_fsyncs_total", "WAL fsync calls (group commits, interval ticks, rotations).", "counter",
		func() []obs.Sample {
			if s.wal == nil {
				return nil
			}
			return []obs.Sample{{Value: float64(s.wal.Stats().Fsyncs)}}
		})
	walGauge("corrfused_wal_group_commit_size", "Records the most recent group-commit fsync made durable at once.",
		func(st wal.Stats) float64 { return float64(st.LastGroupCommit) })
	walGauge("corrfused_wal_recovered_records", "Acknowledged observations replayed from the WAL at startup.",
		func(st wal.Stats) float64 { return float64(s.walRecovered) })
	walGauge("corrfused_wal_ignored_files", "Files in the WAL directory skipped at startup because their names are not valid segments (crash leftovers; each is also logged).",
		func(st wal.Stats) float64 { return float64(st.IgnoredFiles) })

	// The replication families are suppressed — header included — until
	// SetReplStatus installs a status source (followers only), mirroring the
	// WAL-family pattern above.
	replMetric := func(name, help, typ string, f func(st repl.Status) float64) {
		r.SampleFunc(name, help, typ, func() []obs.Sample {
			st, ok := s.replStatusNow()
			if !ok {
				return nil
			}
			return []obs.Sample{{Value: f(st)}}
		})
	}
	replMetric("corrfused_repl_follower_connected", "1 while the follower's last leader contact succeeded, 0 while it serves stale reads and retries.", "gauge",
		func(st repl.Status) float64 {
			if st.Connected {
				return 1
			}
			return 0
		})
	replMetric("corrfused_repl_lag_records", "Leader records not yet applied by this follower.", "gauge",
		func(st repl.Status) float64 { return float64(st.LagRecords) })
	replMetric("corrfused_repl_lag_seconds", "How long this follower has continuously trailed the leader (0 when caught up).", "gauge",
		func(st repl.Status) float64 { return st.LagSeconds })
	replMetric("corrfused_repl_applied_seq", "Last replicated WAL sequence applied by this follower.", "gauge",
		func(st repl.Status) float64 { return float64(st.AppliedSeq) })
	replMetric("corrfused_repl_leader_seq", "Leader WAL head as of this follower's last contact.", "gauge",
		func(st repl.Status) float64 { return float64(st.LeaderSeq) })
	replMetric("corrfused_repl_segments_shipped_total", "Shipment batches fetched from the leader and applied.", "counter",
		func(st repl.Status) float64 { return float64(st.SegmentsShipped) })
	replMetric("corrfused_repl_diverged", "1 while this follower holds records outside the leader's durable history and needs an operator re-bootstrap.", "gauge",
		func(st repl.Status) float64 {
			if st.Diverged {
				return 1
			}
			return 0
		})
	replMetric("corrfused_repl_rebootstraps_total", "Automatic snapshot re-bootstraps after the leader truncated past this follower's position; nonzero means the follower fell behind a full retention window.", "counter",
		func(st repl.Status) float64 { return float64(st.Rebootstraps) })

	r.SampleFunc("corrfused_traces_recorded_total", "Finished traces offered to the trace ring buffer.", "counter",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.traces.Total())}} })
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	//lint:ignore errswallow a scrape write fails only when the scraper hung up; nothing to do and nowhere to report it
	s.reg.WriteTo(w)
}
