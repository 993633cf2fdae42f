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
			if _, skipped, err := s.rebuild(context.Background(), false); err != nil {
				s.logger.Logf("serve: background re-fusion failed: %v", err)
			} else if !skipped {
				if err := s.persist(); err != nil {
					s.logger.Logf("%v", err)
				}
			}
		}
	}
}

// rebuild re-fuses the accumulated store with the batch model and swaps the
// result in. Unless force is set, it is skipped (skipped=true) when the
// store's data version has not moved since the current snapshot.
//
// Concurrency protocol: the store capture happens under the live write lock,
// so every journal entry recorded before the capture is already in the
// store (ingest writes the store before journaling, and journaling needs
// the same lock). The per-shard version capture is a separate store-lock
// acquisition: ingest writes the store before taking the live lock, so a
// claim can land between the two reads. Versions are therefore captured
// BEFORE the dataset — an interleaved claim then appears in the dataset
// with its version bump unrecorded, and the next diff over-states dirtiness
// (an extra retrain, never a stale adoption); any remaining understatement
// is backstopped by shard.RebuildPartial verifying every adoption against
// the new capture. The long model build then runs without any lock. At swap
// time the journal suffix —
// claims ingested during the build, which the capture may have missed — is
// replayed onto the new incremental scorer; replaying a claim the capture
// did include is harmless because Incremental.Observe is idempotent.
//
// Online-scorer failures never abort a rebuild: by the time the scorer is
// seeded, SetFusion has already written the new model's results back to the
// store, so bailing out would leave store-backed endpoints (/v1/subject,
// /v1/accepted) serving the new model against a snapshot still serving the
// old one. The service instead degrades to batch-only (inc = nil), logs the
// cause once, raises the online_disabled gauge, and completes the swap.
//
// Cancellation: ctx bounds the rebuild (the refresher and New pass
// context.Background(); /v1/refuse passes the coalesced clients' budget).
// It is checked at the points of no side effects — on entry, after the
// capture, and after the model trains but BEFORE SetFusion writes anything
// back. Once write-back begins the rebuild runs to completion regardless:
// aborting between SetFusion and the snapshot swap would leave store-backed
// responses serving the new model against a snapshot still serving the old
// one, the exact inconsistency this function exists to prevent.
func (s *Server) rebuild(ctx context.Context, force bool) (*snapshot, bool, error) {
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
			//lint:ignore labelbound name is a stage-name constant at every stage call site below
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
		s.m.rebuildSkips.Add(1)
		return cur, true, nil
	}
	shardVers := s.store.ShardVersions()
	d := s.store.Dataset()
	journalStart := len(s.live.journal)
	s.live.Unlock()
	endCapture()

	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("serve: rebuild canceled after capture: %w", err)
	}

	begin := time.Now()
	endTrain := stage("train")
	var fuser *corrfuse.ShardedFuser
	var err error
	if cur == nil {
		opts := s.cfg.Options
		if s.cfg.SubjectScope {
			opts.Scope = corrfuse.NewScopeSubject(d)
		}
		fuser, err = corrfuse.NewSharded(d, opts)
	} else {
		fuser, err = cur.fuser.RebuildPartial(d, s.dirtyShards(cur, shardVers))
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
	// The engine times its serial routing pass and its parallel per-shard
	// dataset build internally; surface both as refresh stages alongside
	// the aggregate train time they are part of.
	pt := fuser.PartitionTimings()
	tr.AddSpan("shard_route", 0, pt.Route)
	s.rebuildStage.With("shard_route").Observe(pt.Route)
	tr.AddSpan("shard_build", pt.Route, pt.Build)
	s.rebuildStage.With("shard_build").Observe(pt.Build)
	// Freeze the model: every probability and decision is computed once
	// into the dense score tables that back all subsequent reads.
	endFreeze := stage("freeze")
	probs, provided, accepted := fuser.FrozenScores()
	endFreeze()

	// Write the batch results back as the authoritative fusion state.
	// SetFusion overwrites unconditionally, so demotions stick, and it
	// does not advance the data version, so this very rebuild does not
	// make the next one think the data changed.
	endWriteback := stage("writeback")
	nTriples, nAccepted := 0, 0
	for i, ok := range provided {
		if !ok {
			continue
		}
		id := corrfuse.TripleID(i)
		s.store.SetFusion(d.Triple(id), probs[i], accepted[i])
		nTriples++
		if accepted[i] {
			nAccepted++
		}
	}
	endWriteback()
	// Freeze the fused results into the snapshot's read index, sharing the
	// model's score tables (no copies — the index only adds the pre-ranked
	// listing structures). Built here, once per rebuild and before the
	// swap, so readers always find a fully built index behind the snapshot
	// pointer — version-stamped with the same capture the snapshot records.
	endIndex := stage("index_build")
	idx := index.Build(d, probs, provided, accepted, version)
	endIndex()

	// Reseed the incremental scorer from the new quality model (routed
	// per shard). The unsupervised baselines carry no quality model; the
	// service then serves batch results only and inc stays nil — the log
	// line and the online_disabled gauge tell that state apart from a
	// healthy supervised deployment.
	endSeed := stage("online_seed")
	inc, incErr := fuser.Online(s.cfg.PenalizeSilence)
	if s.testOnlineHook != nil {
		inc, incErr = s.testOnlineHook(inc, incErr)
	}
	if incErr != nil {
		inc = nil
		s.logger.Logf("serve: online scorer unavailable, serving batch results only: %v", incErr)
	}
	if inc != nil {
		if err := seedOnline(inc, d); err != nil {
			inc = nil
			s.logger.Logf("serve: online scorer seeding failed, serving batch results only: %v", err)
		}
	}
	endSeed()

	next := &snapshot{
		fuser:         fuser,
		data:          d,
		idx:           idx,
		version:       version,
		shardVersions: shardVers,
		builtAt:       time.Now(),
		triples:       nTriples,
		accepted:      nAccepted,
		shardStats:    fuser.ShardStats(),
	}
	if cur != nil {
		next.seq = cur.seq + 1
	} else {
		next.seq = 1
	}

	endSwap := stage("swap")
	s.live.Lock()
	if inc != nil {
		for _, o := range s.live.journal[journalStart:] {
			sid, ok := d.SourceID(o.source)
			if !ok {
				continue
			}
			if _, err := inc.Observe(sid, o.t); err != nil {
				// The store already holds the new model's results;
				// degrade to batch-only rather than abort mid-swap.
				inc = nil
				s.logger.Logf("serve: journal replay failed, serving batch results only: %v", err)
				break
			}
		}
	}
	s.live.inc = inc
	s.live.data = d
	// Keep only the suffix: everything before the capture is in the
	// store, so the next capture will include it.
	s.live.journal = append([]observation(nil), s.live.journal[journalStart:]...)
	for name := range s.live.unknown {
		if _, ok := d.SourceID(name); ok {
			delete(s.live.unknown, name)
		}
	}
	s.snap.Store(next)
	s.live.Unlock()
	endSwap()
	tr.Finish(0)
	s.traces.Record(tr)

	if inc == nil {
		s.m.onlineDisabled.Store(1)
	} else {
		s.m.onlineDisabled.Store(0)
	}
	s.m.rebuilds.Add(1)
	rebuilt, reused := next.rebuildCounts()
	if reused > 0 {
		// Counted by what happened, not by the path taken: a partial
		// rebuild whose adoption degraded to zero reuse (say a new source
		// changed the source table) was a full rebuild.
		s.m.partialRebuilds.Add(1)
	}
	s.m.lastRebuildNanos.Store(int64(time.Since(begin)))
	s.logger.Logf("serve: snapshot %d: %s over %d sources, %d triples → %d accepted in %v",
		next.seq, fuser.MethodName(), d.NumSources(), next.triples, next.accepted, time.Since(begin).Round(time.Millisecond))
	s.logger.Logf("serve: snapshot %d: %d shards rebuilt, %d reused", next.seq, rebuilt, reused)
	for _, st := range next.shardStats {
		if st.Reused {
			continue
		}
		s.logger.Logf("serve: snapshot %d: shard %d: %d triples (%d labeled) built in %v",
			next.seq, st.Shard, st.Triples, st.Labeled, st.Build.Round(time.Millisecond))
	}
	return next, false, nil
}

// dirtyShards returns the shards the next rebuild must retrain: those whose
// store version moved since the current snapshot's capture — or every shard
// (a full rebuild) when partial rebuilds are off or the snapshot carries no
// per-shard version capture matching the tracked shard count.
func (s *Server) dirtyShards(cur *snapshot, shardVers []uint64) []int {
	n := cur.fuser.NumShards()
	diffable := s.cfg.PartialRebuild && len(shardVers) == n && len(cur.shardVersions) == n
	var dirty []int
	for i := 0; i < n; i++ {
		if !diffable || shardVers[i] != cur.shardVersions[i] {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// seedOnline replays every observation of the captured dataset onto a
// freshly derived incremental scorer.
func seedOnline(inc corrfuse.OnlineScorer, d *corrfuse.Dataset) error {
	for si := 0; si < d.NumSources(); si++ {
		sid := triple.SourceID(si)
		for _, id := range d.Output(sid) {
			if _, err := inc.Observe(sid, d.Triple(id)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ingest applies one claim: store first (so a concurrent capture that
// precedes our journal entry already has it), then the write-ahead log,
// then the live scorer and the journal under the live write lock. It
// returns the freshest probability available and whether it came from the
// live model, plus the claim's WAL sequence number (0 without a WAL).
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
	entry := store.Entry{Triple: t, Sources: []string{o.Source}, Label: o.Label}
	s.store.Put(entry)
	s.m.observations.Add(1)

	var seq uint64
	if s.wal != nil {
		var err error
		seq, err = s.wal.Append(wal.Record{
			Source: o.Source, Subject: o.Subject, Predicate: o.Predicate, Object: o.Object, Label: o.Label,
		})
		if err != nil {
			return ObserveResult{Triple: t}, 0, err
		}
	}

	res := ObserveResult{Triple: t}
	s.live.Lock()
	s.live.journal = append(s.live.journal, observation{source: o.Source, t: t})
	if s.live.inc == nil {
		s.live.Unlock()
		if e, ok := s.store.Get(t); ok {
			res.Probability = e.Probability
		}
		return res, seq, nil
	}
	sid, known := s.live.data.SourceID(o.Source)
	if !known {
		s.live.unknown[o.Source] = true
		p, ok := s.live.inc.Probability(t)
		s.live.Unlock()
		res.PendingSource = true
		if ok {
			res.Probability = p
			res.Live = true
		} else if e, ok := s.store.Get(t); ok {
			res.Probability = e.Probability
		}
		return res, seq, nil
	}
	p, err := s.live.inc.Observe(sid, t)
	s.live.Unlock()
	if err == nil {
		res.Probability = p
		res.Live = true
	}
	return res, seq, nil
}

// liveProbability returns the freshest probability for t. Triples whose
// observation set is fully reflected in the current snapshot get the batch
// (correlation-corrected) probability; triples newly observed — or with new
// provenance — since the capture get the incremental probability. ok is
// false when neither model knows t.
func (s *Server) liveProbability(sn *snapshot, t triple.Triple) (p float64, live, ok bool) {
	id, inSnap := sn.data.TripleID(t)
	snapProviders := 0
	if inSnap {
		snapProviders = len(sn.data.Providers(id))
	}
	s.live.RLock()
	if s.live.inc != nil && s.live.inc.Providers(t) > snapProviders {
		p, ok = s.live.inc.Probability(t)
		s.live.RUnlock()
		return p, true, ok
	}
	s.live.RUnlock()
	if inSnap && snapProviders > 0 {
		return sn.fuser.ProbabilityByID(id), false, true
	}
	return 0, false, false
}
