//go:build linux

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"corrfuse"
	"corrfuse/internal/codec"
	"corrfuse/internal/index"
	"corrfuse/internal/serve"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
	"corrfuse/internal/wal"
)

const replayBatches = 400

// seedOnline replays a dataset's observations onto a fresh online scorer,
// as the server does after every rebuild.
func seedOnline(inc corrfuse.OnlineScorer, d *triple.Dataset) error {
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

// rebuildSpans runs the steps of one server rebuild-and-persist over st
// inside spans under one request, and returns their durations in ms by
// metric name. prev is the model to rebuild from (nil trains from scratch,
// the boot case); dirty lists the shards to retrain.
func (r *run) rebuildSpans(st *store.Store, prev *corrfuse.ShardedFuser, dirty []int, persistTo string, w *wal.WAL) (map[string]float64, *corrfuse.ShardedFuser, error) {
	out := make(map[string]float64)
	rid := r.tr.request()
	root, endRoot := r.tr.begin("replay.rebuild", rid, 0)
	var stepErr error
	step := func(metric, spanName string, fn func() error) {
		if stepErr != nil {
			return
		}
		_, end := r.tr.begin(spanName, rid, root)
		stepErr = fn()
		out[metric] = millis(end())
	}
	var (
		d                  *triple.Dataset
		next               *corrfuse.ShardedFuser
		probs              []float64
		provided, accepted []bool
	)
	step("store.capture_ms", "store.capture", func() error {
		d = st.Dataset()
		return nil
	})
	trainMetric, trainSpan := "corrfuse.rebuild_partial_ms", "corrfuse.rebuild_partial"
	if prev == nil {
		trainMetric, trainSpan = "corrfuse.train_ms", "corrfuse.train"
	}
	step(trainMetric, trainSpan, func() error {
		if prev != nil {
			m, err := prev.RebuildPartial(d, dirty)
			next = m
			return err
		}
		m, err := corrfuse.NewModel(d, servedOptions(d))
		if err != nil {
			return err
		}
		sh, ok := m.(*corrfuse.ShardedFuser)
		if !ok {
			return fmt.Errorf("NewModel with %d shards returned %T", numShards, m)
		}
		next = sh
		return nil
	})
	step("corrfuse.freeze_ms", "corrfuse.freeze", func() error {
		probs, provided, accepted = next.FrozenScores()
		return nil
	})
	step("store.writeback_ms", "store.writeback", func() error {
		for i, ok := range provided {
			if ok {
				st.SetFusion(d.Triple(triple.TripleID(i)), probs[i], accepted[i])
			}
		}
		return nil
	})
	step("index.build_ms", "index.build", func() error {
		index.Build(d, probs, provided, accepted, st.Version())
		return nil
	})
	step("corrfuse.online_seed_ms", "corrfuse.online_seed", func() error {
		inc, err := next.Online(true)
		if err != nil {
			return err
		}
		return seedOnline(inc, d)
	})
	if persistTo != "" {
		step("store.save_binary_ms", "store.save_binary", func() error { return st.SaveBinary(store.BinaryPath(persistTo)) })
		step("store.save_jsonl_ms", "store.save_jsonl", func() error { return st.Save(persistTo) })
	}
	if w != nil {
		step("wal.truncate_ms", "wal.truncate", func() error { return w.TruncateThrough(w.Seq()) })
	}
	endRoot()
	if stepErr != nil {
		return nil, nil, stepErr
	}
	pt := next.PartitionTimings()
	out["shard.route_ms"] = millis(pt.Route)
	out["shard.build_ms"] = millis(pt.Build)
	reused := 0
	for _, s := range next.ShardStats() {
		if s.Reused {
			reused++
		}
	}
	out["corrfuse.shards_reused_ratio"] = float64(reused) / float64(next.NumShards())
	return out, next, nil
}

// ingestLayers replays the ingest script in process: each batch goes
// through the real observe handler (a second serving stack with its own
// WAL) inside one span, then through the layers the handler calls —
// decode, store, WAL append, online scorer, WAL commit, encode — on a
// mirror store with its own WAL; a rebuild-and-persist over the mirror
// follows.
func (r *run) ingestLayers(sv *serving) error {
	sd := sv.sd

	// The real handler.
	hst := sd.store(r.cfg.sc)
	hd := hst.Dataset()
	hsrv, err := serve.New(hst, serve.Config{
		Options:         servedOptions(hd),
		PenalizeSilence: true,
		PartialRebuild:  true,
		PersistPath:     filepath.Join(r.env.runDir, "replay-handler.jsonl"),
		WALDir:          filepath.Join(r.env.runDir, "replay-handler-wal"),
		WALSync:         wal.SyncAlways,
	})
	if err != nil {
		return err
	}
	h := hsrv.Handler()

	// The mirror the layers are called on.
	st := sd.store(r.cfg.sc)
	st.TrackShards(numShards)
	d0 := st.Dataset()
	m0, err := corrfuse.NewModel(d0, servedOptions(d0))
	if err != nil {
		return err
	}
	model, ok := m0.(*corrfuse.ShardedFuser)
	if !ok {
		return fmt.Errorf("NewModel with %d shards returned %T", numShards, m0)
	}
	versions := st.ShardVersions()
	online, err := model.Online(true)
	if err != nil {
		return err
	}
	if err := seedOnline(online, d0); err != nil {
		return err
	}
	w, _, err := wal.Open(filepath.Join(r.env.runDir, "replay-wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}

	script := newClaimScript(sd, r.cfg.seed, 0)
	var (
		batch   []claim
		body    []byte
		req     codec.ObserveRequest
		results []codec.ObserveResult
		buf     []byte

		handler, decode, put, appendT, observe, commit, encode []float64
	)
	for b := 0; b < replayBatches; b++ {
		batch = script.next(batch)
		body = sd.appendObserveBody(body[:0], batch, 0)
		hc, err := newHandlerCall(h, "POST", "/v1/observe", body)
		if err != nil {
			return err
		}
		rid := r.tr.request()
		hid, end := r.tr.begin("serve.observe_handler", rid, 0)
		if err := hc.serve(); err != nil {
			return err
		}
		hdur := end()

		_, end = r.tr.begin("codec.decode_observe", rid, hid)
		req.Observations = req.Observations[:0]
		if err := codec.DecodeObserveRequest(body, &req); err != nil {
			return err
		}
		dd := end()

		_, end = r.tr.begin("store.put", rid, hid)
		for _, o := range req.Observations {
			st.Put(store.Entry{Triple: triple.Triple{Subject: o.Subject, Predicate: o.Predicate, Object: o.Object}, Sources: []string{o.Source}})
		}
		pd := end()

		_, end = r.tr.begin("wal.append", rid, hid)
		var seq uint64
		for _, o := range req.Observations {
			if seq, err = w.Append(wal.Record{Source: o.Source, Subject: o.Subject, Predicate: o.Predicate, Object: o.Object}); err != nil {
				return err
			}
		}
		ad := end()

		_, end = r.tr.begin("corrfuse.online_observe", rid, hid)
		results = results[:0]
		for _, o := range req.Observations {
			t := triple.Triple{Subject: o.Subject, Predicate: o.Predicate, Object: o.Object}
			sid, _ := d0.SourceID(o.Source)
			p, err := online.Observe(sid, t)
			if err != nil {
				return err
			}
			results = append(results, codec.ObserveResult{Triple: t, Probability: p, Live: true})
		}
		od := end()

		_, end = r.tr.begin("wal.commit", rid, hid)
		if err := w.Commit(seq); err != nil {
			return err
		}
		cd := end()

		_, end = r.tr.begin("codec.encode_observe", rid, hid)
		buf = codec.AppendObserveResponse(buf[:0], results, 1, seq, true)
		ed := end()

		if b < replayBatches/10 {
			continue
		}
		handler, decode, put = append(handler, micros(hdur)), append(decode, micros(dd)), append(put, micros(pd))
		appendT, observe = append(appendT, micros(ad)), append(observe, micros(od))
		commit, encode = append(commit, micros(cd)), append(encode, micros(ed))
	}
	m := trimmedMeans(handler, decode, put, appendT, observe, commit, encode)
	for i, name := range []string{"serve.observe_handler_us", "codec.decode_observe_us", "store.put_us", "wal.append_us", "corrfuse.online_observe_us", "", "codec.encode_observe_us"} {
		if name != "" {
			r.set(name, m[i])
		}
	}
	if _, ok := r.metrics["wal.commit_wait_us"]; !ok {
		r.set("wal.commit_wait_us", m[5]) // the server's own histogram was not there to scrape
	}
	hc, err := newHandlerCall(h, "POST", "/v1/observe", body)
	if err != nil {
		return err
	}
	r.set("serve.observe_handler_allocs", single(testing.AllocsPerRun(100, func() {
		if err := hc.serve(); err != nil {
			panic(err) // served 200 a moment ago
		}
	})))
	r.set("codec.decode_observe_allocs", single(testing.AllocsPerRun(200, func() {
		var req codec.ObserveRequest
		if err := codec.DecodeObserveRequest(body, &req); err != nil {
			panic(err) // decoded a moment ago
		}
	})))

	ws := w.Stats()
	r.set("wal.bytes_per_obs", single(float64(ws.Bytes)/float64(ws.Seq)))
	if _, ok := r.metrics["wal.group_commit_size"]; !ok {
		r.set("wal.group_commit_size", single(float64(ws.Seq)/float64(ws.Fsyncs)))
	}

	var dirty []int
	for i, v := range st.ShardVersions() {
		if v != versions[i] {
			dirty = append(dirty, i)
		}
	}
	ms, _, err := r.rebuildSpans(st, model, dirty, filepath.Join(r.env.runDir, "replay-store.jsonl"), w)
	if err != nil {
		return err
	}
	for name, v := range ms {
		r.set(name, single(v))
	}
	if err := w.Close(); err != nil {
		return err
	}
	return hsrv.Close(context.Background())
}
