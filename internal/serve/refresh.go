package serve

import (
	"context"
	"fmt"
	"time"

	"corrfuse"
	"corrfuse/internal/index"
	"corrfuse/internal/obs"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
	"corrfuse/internal/wal"
)

// refresher periodically re-fuses the store in the background until the
// server is closed.
func (s *Server) refresher() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.RefreshInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			//lint:ignore ctxflow the background refresher has no request to inherit a deadline from
			if _, _, err := s.rebuild(context.Background(), false, true); err != nil {
				s.logger.Error("serve: background re-fusion failed", "err", err)
			}
		}
	}
}

// rebuild re-fuses the accumulated store with the batch model and swaps the
// result in. Unless force is set, it is skipped (skipped=true) when the
// store's data version has not moved since the current snapshot. With
// persist set (not at boot), a rebuild that is not skipped saves the store
// beside the index build, online seed and swap, and joins the save before
// it returns, so a refuse answers after its own persist.
//
// Concurrency protocol: the store capture happens under the live write lock,
// so every journal entry recorded before the capture is already in the
// store (ingest writes the store before journaling, and journaling needs
// the same lock). The capture derives from the current snapshot's
// (store.CaptureFrom): it re-reads only the entries stamped after that
// capture's version and those appended since, and consumes nothing, so a
// rebuild canceled after its capture leaves the next one the same base.
// The long model build then runs without any lock. At swap
// time the journal suffix — claims ingested during the build, which the
// capture may have missed — is replayed onto the new, empty overlay through
// applyLive; replaying a claim the capture did include is harmless because
// Observe is idempotent on top of the capture-time providers the scorer
// reads from the new dataset.
//
// Online-scorer failures never abort a rebuild: the scorer is derived after
// the write-back, past the last cancellation checkpoint (below). The
// service instead degrades to batch-only (live.inc = nil, which is what
// corrfused_online_disabled reports), logs the cause once, and completes
// the swap.
//
// Cancellation: ctx bounds the rebuild (the refresher and New pass
// context.Background(); /v1/refuse passes the coalesced clients' budget).
// It is checked at the points of no side effects — on entry, after the
// capture, and after the model trains but BEFORE anything is written
// back. Once write-back begins the rebuild runs to completion regardless:
// no read endpoint consults the write-back copy (every batch answer comes
// from the snapshot's index), but persist saves it, so aborting between
// the write-back and the snapshot swap would let the next persist write
// probability/accepted columns from a model that never served a request.
// Nothing after the write-back can fail or be canceled, so the persist may
// start there: it saves the columns of the snapshot about to serve.
func (s *Server) rebuild(ctx context.Context, force, persist bool) (*snapshot, bool, error) {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	s.rebuildActive.Store(true)
	defer s.rebuildActive.Store(false)

	if err := ctx.Err(); err != nil {
		// Every client that queued for this rebuild is gone: don't start.
		return nil, false, fmt.Errorf("serve: rebuild canceled before start: %w", err)
	}

	cur := s.snap.Load()

	// Trace the refresh cycle like a request: each stage below records a
	// span and feeds corrfused_rebuild_stage_seconds, and the finished
	// trace lands in /debug/traces under the name "refresh".
	tr := obs.NewTrace(obs.NewTraceID(), "refresh")
	stage := func(name string) func() {
		begin := time.Now()
		return func() {
			d := time.Since(begin)
			tr.AddSpan(name, begin.Sub(tr.Start), d)
			s.rebuildStage.With(name).Observe(d)
			if s.testStageHook != nil {
				s.testStageHook(name)
			}
		}
	}

	endCapture := stage("capture")
	s.live.Lock()
	version := s.store.Version()
	if !force && cur != nil && version == cur.version {
		// Unmoved version means every journaled claim was a no-op on the
		// store the current snapshot captured, so the journal can be
		// dropped — otherwise duplicate-claim traffic would grow it
		// forever across skipped rebuilds.
		s.live.journal = s.live.journal[:0]
		s.live.Unlock()
		return cur, true, nil
	}
	var prev *store.Captured
	if cur != nil {
		prev = cur.capture
	}
	c := s.store.CaptureFrom(prev)
	d := c.Data
	journalStart := len(s.live.journal)
	s.live.Unlock()
	endCapture()

	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("serve: rebuild canceled after capture: %w", err)
	}

	begin := time.Now()
	endTrain := stage("train")
	var fuser *corrfuse.Fuser
	var err error
	if cur == nil {
		opts := s.cfg.Options
		if s.cfg.SubjectScope {
			opts.Scope = corrfuse.NewScopeSubject(d)
		}
		fuser, err = corrfuse.New(d, opts)
	} else {
		fuser, err = cur.fuser.Rebuild(d)
	}
	endTrain()
	if err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		// Last checkpoint: the trained model is discarded whole. Nothing
		// was written back, so the store, snapshot and journal are exactly
		// as a never-started rebuild would leave them.
		return nil, false, fmt.Errorf("serve: rebuild canceled after train, results discarded: %w", err)
	}
	// Freeze the model: every probability and decision is computed once
	// into the dense score tables that back all subsequent reads.
	endFreeze := stage("freeze")
	probs, provided, accepted := fuser.FrozenScores()
	endFreeze()

	// Write the batch results back as the authoritative fusion state, by
	// capture row. Like SetFusion it overwrites unconditionally, so
	// demotions stick, and it does not advance the data version, so this
	// very rebuild does not make the next one think the data changed.
	endWriteback := stage("writeback")
	nTriples, nAccepted := s.store.SetFusionRows(c.Rows, probs, provided, accepted)
	endWriteback()
	if persist {
		saved := make(chan error, 1)
		go func() { saved <- s.persist() }()
		defer func() {
			if err := <-saved; err != nil {
				s.logger.Error("serve: persist failed", "err", err)
			}
		}()
	}
	// Freeze the fused results into the snapshot's read index, sharing the
	// model's score tables (no copies — the index only adds the pre-ranked
	// listing structures). Built here, once per rebuild and before the
	// swap, so readers always find a fully built index behind the snapshot
	// pointer — version-stamped with the same capture the snapshot records.
	endIndex := stage("index_build")
	idx := index.Build(d, probs, provided, accepted, version)
	endIndex()

	// Derive the next overlay's scorer from the new model. It starts empty
	// — the snapshot is the record of the capture — so this stage times the
	// derivation alone. The unsupervised baselines carry no trained model;
	// the service then serves batch results only and inc stays nil — the
	// log line and the online_disabled gauge tell that state apart from a
	// healthy supervised deployment.
	endSeed := stage("online_seed")
	inc, incErr := fuser.Online(true)
	if s.testOnlineHook != nil {
		inc, incErr = s.testOnlineHook(inc, incErr)
	}
	if incErr != nil {
		inc = nil
		s.logger.Warn("serve: online scorer unavailable, serving batch results only", "err", incErr)
	}
	endSeed()

	next := &snapshot{
		fuser:    fuser,
		data:     d,
		capture:  c,
		idx:      idx,
		version:  version,
		builtAt:  time.Now(),
		triples:  nTriples,
		accepted: nAccepted,
	}
	if cur != nil {
		next.seq = cur.seq + 1
	} else {
		next.seq = 1
	}

	endSwap := stage("swap")
	s.live.Lock()
	s.live.inc = inc
	s.live.data = d
	for name := range s.live.unknown {
		if _, ok := d.SourceID(name); ok {
			delete(s.live.unknown, name)
		}
	}
	// Keep only the suffix — everything before the capture is in the store,
	// so the next capture will include it — by replaying it: applyLive
	// journals each claim again as it feeds the new overlay.
	suffix := s.live.journal[journalStart:]
	s.live.journal = nil
	for _, o := range suffix {
		s.applyLive(o.source, o.t)
	}
	s.snap.Store(next)
	s.live.Unlock()
	endSwap()
	tr.Finish(0)
	s.traces.Record(tr)

	s.m.rebuilds.Add(1)
	s.logger.Info("serve: snapshot built", "seq", next.seq, "method", fuser.MethodName(), "sources", d.NumSources(),
		"triples", next.triples, "accepted", next.accepted, "duration", time.Since(begin))
	return next, false, nil
}

// applyLive journals one claim and feeds it to the overlay. It is the only
// caller of OnlineScorer.Observe: ingest, ApplyReplicated and the swap-time
// journal replay all go through it, holding the live write lock. ok reports
// that the scorer took the claim, and p is then the triple's new
// probability; otherwise the claim waits in the store for the next rebuild —
// batch-only service, or a source the quality model does not know yet
// (recorded in live.unknown).
//
// The overlay holds only what was claimed since the capture; the scorer
// starts a triple's first claim from the snapshot's record of it, its
// capture-time providers, and answers with the snapshot's model.
//
// A scorer whose Observe fails is not trusted again, so it is dropped: the
// cause is logged once and the service runs batch-only until the next
// rebuild derives a fresh scorer. The claim itself is safe in the store.
func (s *Server) applyLive(source string, t triple.Triple) (p float64, ok bool) {
	s.live.journal = append(s.live.journal, observation{source: source, t: t})
	inc, d := s.live.inc, s.live.data
	if inc == nil {
		return 0, false
	}
	sid, known := d.SourceID(source)
	if !known {
		s.live.unknown[source] = true
		return 0, false
	}
	p, err := inc.Observe(sid, t)
	if err != nil {
		s.live.inc = nil
		s.logger.Warn("serve: live scorer failed, serving batch results only until the next rebuild",
			"source", source, "triple", t, "err", err)
		return 0, false
	}
	return p, true
}

// ingest applies one claim: store first (so a concurrent capture that
// precedes our journal entry already has it), then the write-ahead log,
// then the journal and the overlay (applyLive) under the live write lock.
// It returns the overlay's new probability when the scorer took the claim,
// else the freshest answer there is (freshestLocked: the claim waits for the
// next rebuild), plus the claim's WAL sequence number (0 without a WAL).
//
// The returned sequence is NOT yet durable: the caller must wal.Commit the
// batch's highest sequence before acknowledging anything. Ordering matters
// twice over: the store write precedes the WAL append so that a persist
// capturing the WAL head is guaranteed to snapshot every logged record
// (safe truncation), and the WAL append precedes the acknowledgment so a
// crash can never eat an acknowledged claim. On a WAL append error the
// claim may survive in the store unacknowledged — at-least-once, never
// acknowledged-then-lost.
func (s *Server) ingest(o Observation) (ObserveResult, uint64, error) {
	t := triple.Triple{Subject: o.Subject, Predicate: o.Predicate, Object: o.Object}
	s.store.Put(store.Entry{Triple: t, Sources: []string{o.Source}, Label: o.Label})
	s.m.observations.Add(1)

	res := ObserveResult{Triple: t}
	var seq uint64
	if s.wal != nil {
		var err error
		seq, err = s.wal.Append(wal.Record{
			Source: o.Source, Subject: o.Subject, Predicate: o.Predicate, Object: o.Object, Label: o.Label,
		})
		if err != nil {
			return res, 0, err
		}
	}

	s.live.Lock()
	if p, ok := s.applyLive(o.Source, t); ok {
		res.Probability, res.Live = p, true
	} else {
		var basis string
		res.Probability, _, _, basis = s.freshestLocked(s.snap.Load(), t)
		res.Live = basis == basisLive
		res.PendingSource = s.live.unknown[o.Source]
	}
	s.live.Unlock()
	return res, seq, nil
}

// The ScoreResult.Basis values: which side of the snapshot/overlay boundary
// answered.
const (
	basisLive     = "live"
	basisSnapshot = "snapshot"
	basisUnknown  = "unknown"
)

// freshestLocked answers t across the snapshot/overlay boundary; the caller
// holds the live lock (read or write). batch and accepted are the
// snapshot's answer (zero when it has no fused result for t); p is the
// freshest probability: the overlay's when it holds more providers for t
// than the snapshot recorded — a triple newly observed, or with new
// provenance, since the capture — and the batch (correlation-corrected)
// one otherwise. basis says which, basisUnknown when neither side knows t.
//
//corrfuse:hotpath
func (s *Server) freshestLocked(sn *snapshot, t triple.Triple) (p, batch float64, accepted bool, basis string) {
	basis = basisUnknown
	snapProviders := 0
	if id, inSnap := sn.data.TripleID(t); inSnap {
		snapProviders = len(sn.data.Providers(id))
		if bp, acc, ok := sn.idx.Lookup(id); ok {
			p, batch, accepted, basis = bp, bp, acc, basisSnapshot
		}
	}
	if s.live.inc != nil && s.live.inc.Providers(t) > snapProviders {
		if lp, ok := s.live.inc.Probability(t); ok {
			p, basis = lp, basisLive
		}
	}
	return p, batch, accepted, basis
}
