package serve

// Replication integration. The follower loop and the leader endpoints live
// in internal/repl and reach the server through the small surface below
// (cmd/fused wires the two together); serve takes from repl only its Status
// type, and repl imports only wal, so the dependency arrow points one way.

import (
	"fmt"
	"io"
	"net/http"

	"corrfuse/internal/repl"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
	"corrfuse/internal/wal"
)

type replStatusFn func() repl.Status

// SetReplStatus installs the replication-status source (a follower's Status
// method). Installing it activates the corrfused_repl_* metric families and
// the repl sections of /healthz and /v1/refuse.
func (s *Server) SetReplStatus(f func() repl.Status) {
	if f == nil {
		s.replStatus.Store(nil)
		return
	}
	fn := replStatusFn(f)
	s.replStatus.Store(&fn)
}

// replStatusNow returns the current replication status and whether a source
// is installed.
func (s *Server) replStatusNow() (repl.Status, bool) {
	fn := s.replStatus.Load()
	if fn == nil {
		return repl.Status{}, false
	}
	return (*fn)(), true
}

// replSummary is the repl section of /healthz and /v1/refuse.
func (s *Server) replSummary(st repl.Status) map[string]any {
	out := map[string]any{
		"connected":       st.Connected,
		"appliedSeq":      st.AppliedSeq,
		"leaderSeq":       st.LeaderSeq,
		"lagRecords":      st.LagRecords,
		"lagSeconds":      st.LagSeconds,
		"segmentsShipped": st.SegmentsShipped,
		"diverged":        st.Diverged,
		"rebootstraps":    st.Rebootstraps,
	}
	if s.cfg.LeaderURL != "" {
		out["leader"] = s.cfg.LeaderURL
	}
	return out
}

// rejectReadOnly answers a write attempt on a follower with a structured 403
// naming the leader, so clients can redirect themselves. It lives outside
// the hot-path handler: rejection is the cold branch and may allocate.
func (s *Server) rejectReadOnly(w http.ResponseWriter) {
	out := map[string]any{"error": "read-only follower: send writes to the leader"}
	if s.cfg.LeaderURL != "" {
		out["leader"] = s.cfg.LeaderURL
	}
	s.writeJSON(w, http.StatusForbidden, out)
}

// ApplyReplicated applies one verified shipment batch to the follower's
// store, journal and overlay — the same path ingest takes, minus the local
// WAL append (the replication loop appends the shipped lines verbatim
// afterwards, preserving the store-write-before-log-append ordering that
// makes truncation safe). Records are applied in order; re-applying a
// record after a crash-refetch is idempotent (Put merges provenance,
// Observe tolerates repeats).
func (s *Server) ApplyReplicated(recs []wal.Record) error {
	if !s.cfg.ReadOnly {
		return fmt.Errorf("serve: ApplyReplicated on a non-follower server")
	}
	for _, r := range recs {
		t := triple.Triple{Subject: r.Subject, Predicate: r.Predicate, Object: r.Object}
		s.store.Put(store.Entry{Triple: t, Sources: []string{r.Source}, Label: r.Label})
		s.m.observations.Add(1)
		s.live.Lock()
		s.applyLive(r.Source, t)
		s.live.Unlock()
	}
	return nil
}

// Rebootstrap replaces this follower's replication position with a fresh
// leader snapshot: the snapshot stream (the leader's store as JSONL) is
// merged into the local store and the local WAL is rebased so the next
// shipped record is covered+1. It is the apply half of the follower's
// automatic 410 recovery — the repl loop downloads the snapshot (see
// repl.Snapshot) and hands the stream here.
//
// Merging (rather than wiping) the store is sound precisely because this
// path runs only on truncation, never divergence: a truncated follower is
// strictly BEHIND the leader, so every local entry also appears in the
// snapshot and Put's provenance merge is idempotent. The store write lands
// before the WAL rebase, preserving the store-before-log ordering the rest
// of replication relies on; a crash between the two replays the old log
// against a store that already absorbed the snapshot, which is harmless,
// and the next 410 restarts the recovery.
func (s *Server) Rebootstrap(covered uint64, r io.Reader) error {
	if !s.cfg.ReadOnly {
		return fmt.Errorf("serve: Rebootstrap on a non-follower server")
	}
	if s.wal == nil {
		return fmt.Errorf("serve: Rebootstrap without a WAL")
	}
	if err := s.store.Read(r); err != nil {
		return fmt.Errorf("serve: rebootstrap: snapshot: %w", err)
	}
	// The snapshot's observations bypassed the journal, so the overlay no
	// longer holds everything claimed since the capture: degrade to batch
	// results until the next rebuild derives a fresh one, the same fallback
	// a failing scorer gets (corrfused_online_disabled reads 1 meanwhile).
	s.live.Lock()
	if s.live.inc != nil {
		s.live.inc = nil
		s.logger.Info("serve: rebootstrap: live scorer reset; serving batch results until the next rebuild")
	}
	s.live.Unlock()
	if err := s.wal.Rebase(covered + 1); err != nil {
		return fmt.Errorf("serve: rebootstrap: %w", err)
	}
	return nil
}

// CoveredSeq reports a WAL sequence S such that a snapshot written by
// WriteSnapshot afterwards contains every record <= S: ingest writes the
// store before appending to the log, so everything at or below the current
// head is already applied. The leader's bootstrap endpoint captures this
// BEFORE streaming the store.
//
// S is the DURABILITY watermark, not the head: records appended but not yet
// fsynced would be lost by a leader crash, and the crashed leader would
// reassign their sequence numbers to different data. A follower bootstrapped
// with covered = head would then keep the lost records and resume at
// covered+1 with perfect seq continuity — a silent permanent fork, the exact
// failure ReadFrom's durable cap exists to prevent. durable <= head and
// everything <= head is in the store, so the snapshot still contains every
// record <= covered; the extra records beyond covered are re-applied
// idempotently when shipping resumes.
func (s *Server) CoveredSeq() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Stats().DurableSeq
}

// WriteSnapshot streams the store as JSONL for follower bootstrap.
func (s *Server) WriteSnapshot(w io.Writer) error {
	return s.store.Write(w)
}

// WAL returns the server's write-ahead log (nil without Config.WALDir) —
// the replication leader ships from it, and a follower's fetch loop appends
// shipped lines to it.
func (s *Server) WAL() *wal.WAL {
	return s.wal
}
