// Package repl ships the write-ahead log from a leader to read-only
// followers over HTTP. The leader side serves verbatim CRC-enveloped WAL
// lines (plus a store snapshot for bootstrap) from the debug/admin mux; the
// follower side pulls them, re-verifies every envelope, applies the records
// through the caller's store path, and appends the lines to its own log —
// so a follower's disk is byte-compatible with the leader's history and its
// own replay machinery re-verifies everything on restart.
//
// The package deliberately depends only on internal/wal and the standard
// library: internal/serve integrates through small function hooks, never
// the other way around.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"corrfuse/internal/wal"
)

// Shipping protocol headers. Values are decimal sequence numbers.
const (
	// HdrFirst and HdrLast bound the shipped batch.
	HdrFirst = "X-Corrfused-Repl-First"
	HdrLast  = "X-Corrfused-Repl-Last"
	// HdrHeadSeq is the leader's last assigned seq at read time — the
	// follower's lag reference.
	HdrHeadSeq = "X-Corrfused-Repl-Head-Seq"
	// HdrDurableSeq is the leader's durability watermark; shipping never
	// passes it.
	HdrDurableSeq = "X-Corrfused-Repl-Durable-Seq"
	// HdrCoveredSeq, on snapshot responses, is the highest seq the snapshot
	// is guaranteed to contain; the follower's log starts at the next one.
	HdrCoveredSeq = "X-Corrfused-Repl-Covered-Seq"
)

// LeaderOptions configures Leader. WAL is required.
type LeaderOptions struct {
	// WAL is the log to ship from.
	WAL *wal.WAL
	// CoveredSeq and WriteSnapshot serve follower bootstrap: CoveredSeq
	// reports a seq S such that a snapshot written afterwards contains
	// every record <= S (records > S may also appear — replication applies
	// them idempotently); WriteSnapshot streams the store. Both nil
	// disables /repl/snapshot (404).
	CoveredSeq    func() uint64
	WriteSnapshot func(io.Writer) error
	// Logger receives operational log lines; nil silences them.
	Logger *slog.Logger
	// MaxBatchBytes caps one shipment (default 1 MiB).
	MaxBatchBytes int64
	// MaxWait caps the long-poll wait a follower may request (default 25s).
	MaxWait time.Duration
	// PollInterval is the long-poll re-check cadence (default 50ms).
	PollInterval time.Duration
}

// Leader serves the shipping endpoints:
//
//	GET /repl/wal?from=N[&wait=SECONDS] — verbatim WAL lines for seqs >= N,
//	    200 with headers First/Last/Head-Seq/Durable-Seq; 204 when caught up
//	    (after the long-poll wait, if requested); 410 with
//	    {"error":..., "earliestSeq":E} when N predates retained history.
//	GET /repl/snapshot — store stream with Covered-Seq header, for bootstrap.
//
// Mount it on the debug/admin mux: replication is an operator surface, not
// a public one.
type Leader struct {
	opts LeaderOptions
	mux  *http.ServeMux
}

// NewLeader builds the leader handler.
func NewLeader(opts LeaderOptions) (*Leader, error) {
	if opts.WAL == nil {
		return nil, errors.New("repl: LeaderOptions.WAL is required")
	}
	if (opts.CoveredSeq == nil) != (opts.WriteSnapshot == nil) {
		return nil, errors.New("repl: CoveredSeq and WriteSnapshot must be set together")
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = 1 << 20
	}
	if opts.MaxWait <= 0 {
		opts.MaxWait = 25 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 50 * time.Millisecond
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	l := &Leader{opts: opts, mux: http.NewServeMux()}
	l.mux.HandleFunc("GET /repl/wal", l.handleWAL)
	if opts.WriteSnapshot != nil {
		l.mux.HandleFunc("GET /repl/snapshot", l.handleSnapshot)
	}
	return l, nil
}

func (l *Leader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mux.ServeHTTP(w, r)
}

func (l *Leader) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		replError(w, http.StatusBadRequest, "from must be a positive sequence number")
		return
	}
	var wait time.Duration
	if s := q.Get("wait"); s != "" {
		secs, err := strconv.ParseFloat(s, 64)
		if err != nil || secs < 0 {
			replError(w, http.StatusBadRequest, "wait must be a non-negative number of seconds")
			return
		}
		wait = time.Duration(secs * float64(time.Second))
		if wait > l.opts.MaxWait {
			wait = l.opts.MaxWait
		}
	}

	// Long-poll on the follower's request context — its deadline, or a
	// disconnect, ends the wait. Never a detached context: an abandoned
	// request must not keep polling the log.
	ctx := r.Context()
	deadline := time.Now().Add(wait)
	for {
		sh, err := l.opts.WAL.ReadFrom(from, l.opts.MaxBatchBytes)
		var te *wal.TruncatedError
		switch {
		case errors.As(err, &te):
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGone)
			if err := json.NewEncoder(w).Encode(map[string]any{
				"error":       fmt.Sprintf("history from seq %d truncated; re-bootstrap from /repl/snapshot", from),
				"earliestSeq": te.Earliest,
			}); err != nil {
				l.opts.Logger.Warn("repl: leader: 410 body encode failed", "err", err)
			}
			return
		case err != nil:
			l.opts.Logger.Error("repl: leader: ReadFrom failed", "from", from, "err", err)
			replError(w, http.StatusInternalServerError, "log read failed: %v", err)
			return
		}
		if sh.Last >= sh.First {
			h := w.Header()
			h.Set("Content-Type", "application/jsonl")
			h.Set(HdrFirst, strconv.FormatUint(sh.First, 10))
			h.Set(HdrLast, strconv.FormatUint(sh.Last, 10))
			h.Set(HdrHeadSeq, strconv.FormatUint(sh.HeadSeq, 10))
			h.Set(HdrDurableSeq, strconv.FormatUint(sh.DurableSeq, 10))
			if _, err := w.Write(sh.Lines); err != nil {
				l.opts.Logger.Warn("repl: leader: shipment write failed mid-body", "first", sh.First, "last", sh.Last, "err", err)
			}
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			h := w.Header()
			h.Set(HdrHeadSeq, strconv.FormatUint(sh.HeadSeq, 10))
			h.Set(HdrDurableSeq, strconv.FormatUint(sh.DurableSeq, 10))
			w.WriteHeader(http.StatusNoContent)
			return
		}
		pause := l.opts.PollInterval
		if remain < pause {
			pause = remain
		}
		t := time.NewTimer(pause)
		select {
		case <-ctx.Done():
			t.Stop()
			// The follower went away or this process is shutting down:
			// answer 204 (headers only) so a still-listening follower sees
			// a clean caught-up response, not a headerless 200.
			h := w.Header()
			h.Set(HdrHeadSeq, strconv.FormatUint(sh.HeadSeq, 10))
			h.Set(HdrDurableSeq, strconv.FormatUint(sh.DurableSeq, 10))
			w.WriteHeader(http.StatusNoContent)
			return
		case <-t.C:
		}
	}
}

func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// Capture the covered watermark BEFORE streaming: every record <= it is
	// already applied to the store, so the snapshot written next includes
	// them all. Later records may slip in too — the follower re-applies
	// them idempotently when shipping resumes at covered+1.
	covered := l.opts.CoveredSeq()
	h := w.Header()
	h.Set("Content-Type", "application/jsonl")
	h.Set(HdrCoveredSeq, strconv.FormatUint(covered, 10))
	// Commit the status and the covered-seq header before streaming: the
	// follower learns its bootstrap watermark immediately, and a mid-stream
	// failure below is then unambiguously a body error on its side.
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
	if err := l.opts.WriteSnapshot(w); err != nil {
		l.opts.Logger.Error("repl: leader: snapshot stream failed mid-body", "err", err)
		// Headers are gone, so the status can't change — and a store stream
		// that fails at a line boundary leaves a truncated-but-parseable
		// body. Returning normally would end the chunked response CLEANLY
		// and the follower would bootstrap from a partial store with no
		// error, permanently missing records <= covered. Abort the
		// connection instead so the follower's download fails loudly —
		// unless the error IS the client going away, in which case there is
		// no one left to protect.
		if r.Context().Err() == nil {
			panic(http.ErrAbortHandler)
		}
	}
}

// replError writes the service's structured JSON error shape.
func replError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore errswallow the error body is best-effort; the status code already left
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
