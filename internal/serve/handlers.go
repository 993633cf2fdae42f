package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"corrfuse/internal/codec"
	"corrfuse/internal/index"
	"corrfuse/internal/obs"
	"corrfuse/internal/serve/middleware"
	"corrfuse/internal/triple"
)

// The hot request/response shapes live in internal/codec next to their
// hand-rolled encoders and decoders; the aliases keep serve's public API
// unchanged.

// Observation is one ingested claim: a source asserting a triple, with an
// optional gold label ("true" or "false") that joins the training set at
// the next re-fusion.
type Observation = codec.Observation

// ObserveResult reports the freshest probability after applying one claim.
type ObserveResult = codec.ObserveResult

// TripleStatus is the full query answer for one stored triple.
type TripleStatus struct {
	Triple           triple.Triple `json:"triple"`
	Sources          []string      `json:"sources,omitempty"`
	Label            string        `json:"label,omitempty"`
	Probability      float64       `json:"probability"`
	Live             bool          `json:"live"`
	BatchProbability float64       `json:"batchProbability"`
	Accepted         bool          `json:"accepted"`
}

// ScoreRequest asks for probabilities of a batch of triples (at most
// Config.MaxScoreTriples per request).
type ScoreRequest = codec.ScoreRequest

// ScoreResult is one scored triple of a batch.
type ScoreResult = codec.ScoreResult

// acceptedTrue and acceptedFalse back the ScoreResult.Accepted pointers:
// pointing into these package-level values instead of a per-result local
// keeps the scoring loop allocation-free.
var acceptedTrue, acceptedFalse = true, false

// routes mounts the API. The /v1 endpoints sit behind the admission-control
// chain (load shed → deadline; see admit): durable writes and the refresh
// control ride the write class so they are shed last, queries ride the
// read class and are shed first. The operational endpoints
// (/healthz, /metrics, /debug/traces) bypass admission entirely — an
// overloaded service must stay observable, or operators are blind exactly
// when they need the signals.
func (s *Server) routes() {
	v1 := func(endpoint string, class middleware.Class, h http.HandlerFunc) http.Handler {
		return s.route(endpoint, s.admit(endpoint, class, h))
	}
	s.mux.Handle("POST /v1/observe", v1("observe", middleware.ClassWrite, s.handleObserve))
	s.mux.Handle("GET /v1/triple", v1("triple", middleware.ClassRead, s.handleTriple))
	s.mux.Handle("GET /v1/subject/{subject}", v1("subject", middleware.ClassRead, s.handleSubject))
	s.mux.Handle("GET /v1/source/{source}", v1("source", middleware.ClassRead, s.handleSource))
	s.mux.Handle("POST /v1/score", v1("score", middleware.ClassRead, s.handleScore))
	s.mux.Handle("POST /v1/refuse", v1("refuse", middleware.ClassWrite, s.handleRefuse))
	s.mux.Handle("GET /healthz", s.route("healthz", http.HandlerFunc(s.handleHealthz)))
	s.mux.Handle("GET /metrics", s.route("metrics", http.HandlerFunc(s.handleMetrics)))
	s.mux.Handle("GET /debug/traces", s.route("traces", s.traces.Handler()))
}

// writeJSON writes a JSON response body. The encode runs into a pooled
// buffer before any byte (or the status line) reaches the wire, so an
// encode failure downgrades cleanly to a 500 — the old stream-to-wire
// encoder could only truncate the body after a 2xx was already sent.
// Failures are still counted (corrfused_response_encode_failures_total).
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.m.encodeFailures.Inc()
		s.logger.Error("serve: response encode failed before write; answered 500", "status", code, "err", err)
		s.writeBody(w, http.StatusInternalServerError, errEncodeBody)
		return
	}
	s.writeBody(w, code, buf.B)
}

// errEncodeBody is the static fallback body for responses whose intended
// payload failed to encode.
var errEncodeBody = []byte("{\"error\":\"response encoding failed\"}\n")

// writeBody writes an already-encoded JSON body.
func (s *Server) writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A write error here means the client went away mid-response; there
	// is no one left to tell.
	//lint:ignore errswallow client disconnects mid-write are not actionable
	w.Write(body)
}

// httpError writes a structured JSON error. 4xx accounting happens in the
// instrumentation middleware off the recorded response status — covering the
// mux's own 404/405 responses too, which per-handler counting used to miss.
func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// payloadTooLarge rejects an oversized request with 413 and a structured
// error naming the limit that was exceeded (limitField is "maxTriples" or
// "maxBytes").
func (s *Server) payloadTooLarge(w http.ResponseWriter, limitField string, limit int64, format string, args ...any) {
	s.writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
		"error":    fmt.Sprintf(format, args...),
		limitField: limit,
	})
}

// readCapped reads the whole request body into buf under the server's
// byte cap, answering the 413 (structured, naming the limit) or 400
// itself on failure. It reports whether the read succeeded.
func (s *Server) readCapped(w http.ResponseWriter, r *http.Request, buf *codec.Buffer) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.payloadTooLarge(w, "maxBytes", tooLarge.Limit,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		s.httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return false
	}
	return true
}

// decodeError answers a codec decode failure: 400 either way, but a
// trailing second JSON value keeps its dedicated message — garbage after
// the document would otherwise be silently dropped, acknowledging a
// request the client half-sent.
func (s *Server) decodeError(w http.ResponseWriter, err error) {
	if errors.Is(err, codec.ErrTrailing) {
		s.httpError(w, http.StatusBadRequest, "trailing data after JSON document")
		return
	}
	s.httpError(w, http.StatusBadRequest, "malformed body: %v", err)
}

// decodeBody reads a request body under the byte cap and parses it with a
// codec fast-path decoder, answering 413/400 itself. It reports whether
// decoding succeeded.
func decodeBody[T any](s *Server, w http.ResponseWriter, r *http.Request, req *T, decode func([]byte, *T) error) bool {
	defer s.span(r.Context(), "decode")()
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	if !s.readCapped(w, r, buf) {
		return false
	}
	if err := decode(buf.B, req); err != nil {
		s.decodeError(w, err)
		return false
	}
	return true
}

// handleObserve ingests one claim or a batch of claims. The body is either
// a single Observation object or {"observations": [...]} — carrying both is
// ambiguous and rejected — capped at the same byte limit as /v1/score.
//
// The 200 response is the acknowledgment, and with a WAL configured it is
// only written after the whole batch is durable per the sync policy: every
// observation is appended to the log and the batch's highest sequence is
// group-committed before a byte of the response leaves. Without a WAL the
// acknowledgment only promises the claims reached memory.
//
//corrfuse:hotpath
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReadOnly {
		// Followers never accept writes: a claim ingested here would fork
		// the replica from the leader's history. Rejection is the cold
		// branch — the allocating response builder lives off the hot path.
		s.rejectReadOnly(w)
		return
	}
	if s.closing.Load() && s.wal == nil {
		// Shutdown has begun and there is no WAL to make this durable: the
		// final persist may already have captured the store, so an ack now
		// could be an acknowledged-then-lost write. Refuse instead.
		s.httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	var batch codec.ObserveRequest
	if !decodeBody(s, w, r, &batch, codec.DecodeObserveRequest) {
		return
	}
	single := batch.Observation
	hasSingle := single.Source != "" || single.Subject != "" || single.Predicate != "" || single.Object != "" || single.Label != ""
	if hasSingle && len(batch.Observations) > 0 {
		// Both forms at once: the single-object fields used to be silently
		// dropped in favor of the array — reject the ambiguity instead.
		s.httpError(w, http.StatusBadRequest,
			"ambiguous body: carries both a top-level observation and \"observations\"; send one or the other")
		return
	}
	obs := batch.Observations
	if len(obs) == 0 {
		obs = []Observation{single}
	}
	// Validate the whole batch before applying any of it, so a 400 means
	// nothing was ingested.
	for i, o := range obs {
		if o.Source == "" || o.Subject == "" || o.Predicate == "" || o.Object == "" {
			s.httpError(w, http.StatusBadRequest, "observation %d: source, subject, predicate and object are required", i)
			return
		}
		switch o.Label {
		case "", "true", "false":
		default:
			s.httpError(w, http.StatusBadRequest, "observation %d: label must be \"true\" or \"false\"", i)
			return
		}
	}
	results := make([]ObserveResult, 0, len(obs))
	var maxSeq uint64
	endIngest := s.span(r.Context(), "ingest")
	for _, o := range obs {
		if err := r.Context().Err(); err != nil {
			// The request's deadline budget expired (or the client left)
			// mid-batch: stop ingesting. Claims already applied stay in
			// memory unacknowledged (at-least-once), same as a WAL error.
			endIngest()
			s.httpError(w, http.StatusServiceUnavailable, "request canceled mid-batch, nothing acknowledged: %v", err)
			return
		}
		res, seq, err := s.ingest(o)
		if err != nil {
			// The WAL refused the append (closed or poisoned): nothing in
			// this response was acknowledged; claims already applied stay
			// in memory unacknowledged (at-least-once).
			endIngest()
			s.httpError(w, http.StatusServiceUnavailable, "durability unavailable: %v", err)
			return
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		results = append(results, res)
	}
	endIngest()
	if s.wal != nil {
		// The commit wait honors the request's deadline budget: a caller
		// that is gone stops occupying a group-commit slot. An abandoned
		// wait is NOT an acknowledgment — the record becomes durable with
		// the next fsync, but this response reports failure.
		endCommit := s.span(r.Context(), "wal_commit")
		err := s.wal.CommitContext(r.Context(), maxSeq)
		endCommit()
		if err != nil {
			s.httpError(w, http.StatusServiceUnavailable, "durability not confirmed, nothing acknowledged: %v", err)
			return
		}
	} else if s.closing.Load() {
		// Re-check after the store writes: the entry check above races the
		// flag flip, but this one cannot — the claims are in the store
		// before this load, so either Close's final persist (which starts
		// after the flip) captures them, or we see the flip here and
		// refuse. Never acknowledged-then-lost.
		s.httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	sn := s.snap.Load()
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	buf.B = codec.AppendObserveResponse(buf.B, results, sn.seq, maxSeq, s.wal != nil)
	s.writeBody(w, http.StatusOK, buf.B)
}

// handleTriple answers one stored triple. The store supplies its live
// provenance (sources, label); every probability and the decision come from
// the snapshot/overlay pair, never from the store's write-back copy.
func (s *Server) handleTriple(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t := triple.Triple{Subject: q.Get("subject"), Predicate: q.Get("predicate"), Object: q.Get("object")}
	if t.Subject == "" || t.Predicate == "" || t.Object == "" {
		s.httpError(w, http.StatusBadRequest, "subject, predicate and object query parameters are required")
		return
	}
	e, ok := s.store.Get(t)
	if !ok {
		s.httpError(w, http.StatusNotFound, "triple %s not stored", t)
		return
	}
	s.live.RLock()
	sn := s.snap.Load()
	p, batch, accepted, basis := s.freshestLocked(sn, t)
	s.live.RUnlock()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"result": TripleStatus{
			Triple:           t,
			Sources:          e.Sources,
			Label:            e.Label,
			Probability:      p,
			Live:             basis == basisLive,
			BatchProbability: batch,
			Accepted:         accepted,
		},
		"snapshotSeq": sn.seq,
	})
}

// writeIndexed answers a listing request with pre-ranked index entries from
// one snapshot. Every response carries both the snapshot's store version and
// the index's own version: they are always equal (the index is built from
// exactly the snapshot's capture), so a client — or the soak test — can
// verify no response ever mixed two generations. nil entries serve as
// "results": [] (the codec encoder guarantees it).
//
//corrfuse:hotpath
func (s *Server) writeIndexed(w http.ResponseWriter, sn *snapshot, entries []*index.Entry) {
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	buf.B = codec.AppendEntriesResponse(buf.B, entries, sn.seq, sn.version, sn.idx.Version())
	s.writeBody(w, http.StatusOK, buf.B)
}

// handleSubject serves the snapshot's fused results about a subject,
// pre-ranked by descending probability at index build time — no store scan,
// no per-request sort, no lock. The view is snapshot-consistent: claims
// ingested after the snapshot's capture appear at the next rebuild (query
// /v1/triple or /v1/score for live-overlay freshness).
//
//corrfuse:hotpath
func (s *Server) handleSubject(w http.ResponseWriter, r *http.Request) {
	end := s.span(r.Context(), "index_lookup")
	sn := s.snap.Load()
	entries := sn.idx.Subject(r.PathValue("subject"))
	end()
	s.writeIndexed(w, sn, entries)
}

// handleSource serves the snapshot's fused results a source contributed to,
// pre-ranked like handleSubject and equally snapshot-consistent.
//
//corrfuse:hotpath
func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	end := s.span(r.Context(), "index_lookup")
	sn := s.snap.Load()
	entries := sn.idx.Source(r.PathValue("source"))
	end()
	s.writeIndexed(w, sn, entries)
}

// handleScore scores a batch of up to Config.MaxScoreTriples triples in one
// request. Triples fully reflected in the snapshot are answered from the
// frozen index in O(1) each; triples with newer provenance by the overlay
// (freshestLocked decides). Oversized requests (body bytes or triple count)
// are rejected with 413 before any scoring work.
//
//corrfuse:hotpath
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req ScoreRequest
	if !decodeBody(s, w, r, &req, codec.DecodeScoreRequest) {
		return
	}
	if len(req.Triples) == 0 {
		s.httpError(w, http.StatusBadRequest, "triples is required")
		return
	}
	if len(req.Triples) > s.maxScoreTriples {
		s.payloadTooLarge(w, "maxTriples", int64(s.maxScoreTriples),
			"request has %d triples, limit is %d", len(req.Triples), s.maxScoreTriples)
		return
	}
	endScore := s.span(r.Context(), "score")
	results := make([]ScoreResult, len(req.Triples))
	// One read lock for the whole batch, taken before the snapshot load so
	// the overlay consulted is the one layered on this snapshot;
	// snapshot-resident triples never touch the model — each is a
	// constant-time index read.
	s.live.RLock()
	sn := s.snap.Load()
	for i, t := range req.Triples {
		p, _, accepted, basis := s.freshestLocked(sn, t)
		results[i] = ScoreResult{Triple: t, Probability: p, Basis: basis}
		if basis == basisSnapshot {
			results[i].Accepted = &acceptedFalse
			if accepted {
				results[i].Accepted = &acceptedTrue
			}
		}
	}
	s.live.RUnlock()
	endScore()
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	buf.B = codec.AppendScoreResponse(buf.B, results, sn.seq, sn.version, sn.idx.Version())
	s.writeBody(w, http.StatusOK, buf.B)
}

// handleRefuse forces a batch re-fusion and waits for it to complete.
// Concurrent refuse requests are single-flighted: the first starts the
// rebuild, later arrivals join it and share the same summary (their
// responses carry "coalesced": true and identical snapshot versions), so a
// refresh stampede costs one rebuild instead of N serialized ones. The
// shared rebuild runs under a context canceled only when every joined
// client has disconnected or timed out — one impatient caller cannot abort
// work the others are waiting on, but work nobody wants stops at the next
// rebuild checkpoint.
func (s *Server) handleRefuse(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	v, shared, err := s.refuseFlight.Do(r.Context(), func(ctx context.Context) (any, error) {
		sn, skipped, err := s.rebuild(ctx, true, true)
		if err != nil {
			return nil, err
		}
		return s.refuseSummary(sn, skipped), nil
	})
	if shared {
		s.m.refuseCoalesced.Inc()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.httpError(w, http.StatusServiceUnavailable, "re-fusion canceled: %v", err)
			return
		}
		s.httpError(w, http.StatusInternalServerError, "re-fusion failed: %v", err)
		return
	}
	// The summary map is shared across coalesced waiters: copy before
	// adding the per-request fields.
	out := make(map[string]any, len(v.(map[string]any))+2)
	for k, val := range v.(map[string]any) {
		out[k] = val
	}
	out["durationMs"] = time.Since(begin).Milliseconds()
	if shared {
		out["coalesced"] = true
	}
	s.writeJSON(w, http.StatusOK, out)
}

// refuseSummary assembles the shared /v1/refuse response body for one
// completed rebuild (everything except the per-request durationMs and
// coalesced fields).
func (s *Server) refuseSummary(sn *snapshot, skipped bool) map[string]any {
	out := map[string]any{
		"snapshotSeq":     sn.seq,
		"snapshotVersion": sn.version,
		"indexVersion":    sn.idx.Version(),
		"indexedTriples":  sn.idx.Len(),
		"indexedSubjects": sn.idx.Subjects(),
		"skipped":         skipped,
		"triples":         sn.triples,
		"accepted":        sn.accepted,
		"method":          sn.fuser.MethodName(),
	}
	if lastErr := s.lastPersistError(); lastErr != "" {
		out["lastPersistError"] = lastErr
	}
	out["persistFailures"] = s.m.persistFailures.Load()
	if s.wal != nil {
		out["wal"] = s.walStatus()
	}
	if st, ok := s.replStatusNow(); ok {
		out["repl"] = s.replSummary(st)
	}
	return out
}

// walStatus summarizes the write-ahead log for /v1/refuse and /healthz:
// recovery state (records replayed at startup) and the live log head.
func (s *Server) walStatus() map[string]any {
	st := s.wal.Stats()
	out := map[string]any{
		"recoveredRecords": s.walRecovered,
		"seq":              st.Seq,
		"durableSeq":       st.DurableSeq,
		"segments":         st.Segments,
		"bytes":            st.Bytes,
	}
	if st.IgnoredFiles > 0 {
		out["ignoredFiles"] = st.IgnoredFiles
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	bi := obs.GetBuildInfo()
	out := map[string]any{
		"status":          "ok",
		"snapshotSeq":     sn.seq,
		"snapshotVersion": sn.version,
		"indexVersion":    sn.idx.Version(),
		"uptimeSeconds":   time.Since(s.started).Seconds(),
		"version":         bi.Version,
		"commit":          bi.Commit,
		"goVersion":       bi.GoVersion,
	}
	if snap := s.snapshotStatus(); snap != nil {
		out["snapshot"] = snap
	}
	if s.wal != nil {
		out["wal"] = s.walStatus()
	}
	if st, ok := s.replStatusNow(); ok {
		out["repl"] = s.replSummary(st)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// snapshotStatus summarizes for /healthz how (and how fast) this process's
// store was loaded. Nil when no load info was recorded.
func (s *Server) snapshotStatus() map[string]any {
	li := s.cfg.SnapshotLoad
	if li == nil {
		return nil
	}
	out := map[string]any{
		"loadFormat":  li.Format,
		"loadBytes":   li.Bytes,
		"loadSeconds": li.Duration.Seconds(),
		"mapped":      li.Mapped,
	}
	if li.FallbackReason != "" {
		out["loadFallbackReason"] = li.FallbackReason
	}
	return out
}
