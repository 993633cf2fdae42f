//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"corrfuse/internal/store"
	"corrfuse/internal/triple"
	"corrfuse/internal/wal"
)

// bootTemplate is the crashed state directory every boot starts from, made
// by fused itself: seed store → boot with a WAL → ingest → /v1/refuse (so
// .cfsn and JSONL exist and the WAL is truncated) → further ingest → SIGKILL.
type bootTemplate struct {
	dir    string
	suffix int          // WAL records acknowledged after the persist
	mirror *store.Store // seed + every acknowledged claim
	recent []triple.Triple
}

func (t *bootTemplate) storePath() string { return filepath.Join(t.dir, "store.jsonl") }
func (t *bootTemplate) walDir() string    { return filepath.Join(t.dir, "wal") }

func walFlags(dir string) []string {
	return []string{"-wal", dir, "-wal-sync", "always", "-partial-rebuild"}
}

func (r *run) makeTemplate(sv *serving) (*bootTemplate, error) {
	t := &bootTemplate{dir: filepath.Join(r.env.runDir, "template"), mirror: sv.st}
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Rename(r.env.storePath(), t.storePath()); err != nil {
		return nil, err
	}
	srv, err := r.env.startFused(t.storePath(), walFlags(t.walDir())...)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	c, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	ic := &ingestConn{c: c, script: newClaimScript(sv.sd, r.cfg.seed, 0)}
	ingest := func(batches int) error {
		for i := 0; i < batches; i++ {
			if !ic.observe(r, sv.sd) || r.failed > 0 {
				return fmt.Errorf("template ingest failed: %v", r.failures)
			}
		}
		return nil
	}
	if err := ingest(r.cfg.sc.templateA); err != nil {
		return nil, err
	}
	if _, err := srv.refuse(c); err != nil {
		return nil, err
	}
	persisted := len(ic.acked)
	if err := ingest(r.cfg.sc.templateB); err != nil {
		return nil, err
	}
	t.suffix = len(ic.acked) - persisted
	applyClaims(t.mirror, sv.sd, 0, ic.acked)
	for _, cl := range ic.acked[len(ic.acked)-scoreBulk/2:] {
		t.recent = append(t.recent, sv.sd.claimTriple(cl, 0))
	}
	return t, nil
}

// boot is one measured start of fused.
type boot struct {
	readyMS float64
	cpuUS   float64
	rssMB   float64
	stages  map[string]float64 // scraped rebuild stage → ms
}

// bootOnce copies the template, starts fused on the copy and checks what it
// serves: the WAL suffix recovered in full and one bulk score (half
// recovered claims, half seed triples) equal to the oracle. With sweep set it
// also scores every seed triple and returns the answer F1. The process is
// killed before returning.
func (r *run) bootOnce(sv *serving, t *bootTemplate, o *oracle, sweep bool) (boot, float64, error) {
	dir := filepath.Join(r.env.runDir, "boot")
	if err := os.RemoveAll(dir); err != nil {
		return boot{}, 0, err
	}
	if err := copyDir(t.dir, dir); err != nil {
		return boot{}, 0, err
	}
	srv, err := r.env.startFused(filepath.Join(dir, "store.jsonl"), walFlags(filepath.Join(dir, "wal"))...)
	if err != nil {
		return boot{}, 0, err
	}
	defer srv.kill()
	b := boot{readyMS: millis(srv.ready)}
	cpu, err := procCPU(srv.pid())
	if err != nil {
		return boot{}, 0, err
	}
	b.cpuUS = micros(cpu)
	rssKB, err := procStatusKB(srv.pid(), "VmHWM")
	if err != nil {
		return boot{}, 0, err
	}
	b.rssMB = rssKB / 1024

	r.attempt(1)
	recovered, err := srv.recoveredRecords()
	if err != nil {
		return boot{}, 0, err
	}
	if recovered != t.suffix {
		r.fail("boot recovered %d WAL records, want %d", recovered, t.suffix)
	}

	c, err := dial(srv.addr)
	if err != nil {
		return boot{}, 0, err
	}
	defer c.close()
	probe := append([]triple.Triple(nil), t.recent...)
	for i := 0; len(probe) < scoreBulk; i++ {
		probe = append(probe, sv.sd.triple(i*977%len(sv.sd.truth)))
	}
	r.sweep(c, probe, o.expect)
	f1 := 0.0
	if sweep {
		f1 = sv.answerF1(r, c, o.expect)
	}
	if r.tr != nil {
		sc, err := srv.scrape()
		if err != nil {
			return boot{}, 0, err
		}
		b.stages = make(map[string]float64)
		for _, stage := range bootStages {
			if v, ok := histMean(nil, sc, "corrfused_rebuild_stage_seconds", "stage", stage, time.Millisecond); ok {
				b.stages[stage] = v
			}
		}
	}
	return b, f1, nil
}

var bootStages = []string{"capture", "train", "shard_build", "freeze", "writeback", "index_build", "online_seed"}

// coldBoot is the cold-boot workload; see README.md.
func (r *run) coldBoot() error {
	sv, err := r.setupServing(false)
	if err != nil {
		return err
	}
	var t *bootTemplate
	if err := r.step("boot_template", func() (err error) {
		t, err = r.makeTemplate(sv)
		return err
	}); err != nil {
		return err
	}
	var o *oracle
	if err := r.step("oracle_train", func() (err error) {
		o, err = newOracle(t.mirror, r.cfg.oracleSkew)
		return err
	}); err != nil {
		return err
	}

	// One discarded boot warms the page cache and the binary up; then boot
	// after boot until time is up.
	if _, _, err := r.bootOnce(sv, t, o, false); err != nil {
		return err
	}
	total := time.Duration(r.cfg.seconds * float64(time.Second))
	begin := time.Now()
	var boots []boot
	for time.Since(begin) < total || len(boots) < r.cfg.sc.minBoots {
		b, _, err := r.bootOnce(sv, t, o, false)
		if err != nil {
			return err
		}
		boots = append(boots, b)
	}
	_, f1, err := r.bootOnce(sv, t, o, true)
	if err != nil {
		return err
	}

	readies := column(boots, func(b boot) float64 { return b.readyMS })
	ready := lowerQuartile(readies)
	r.set("setup_s", single(r.setupSeconds()))
	r.set("op_ms", ready)
	r.set("alt_op_ms", upperQuartile(readies)) // the slow boots
	r.set("cpu_us_per_op", lowerQuartile(column(boots, func(b boot) float64 { return b.cpuUS })))
	r.set("peak_rss_mb", summarize(column(boots, func(b boot) float64 { return b.rssMB })))
	r.set("answer_f1", single(f1))
	if r.tr == nil {
		return nil
	}
	for _, stage := range bootStages {
		r.set("serve.boot_stage_"+stage+"_ms", summarize(column(boots, func(b boot) float64 { return b.stages[stage] })))
	}
	return r.bootLayers(t, ready.Value)
}

// bootLayers replays a boot in process: load the snapshot, open the WAL
// (which replays it), apply the recovered records, then the steps of the
// first rebuild. What the real boot takes beyond their sum — exec, runtime
// start, flag parsing, listen, the first health poll — is
// process.boot_other_ms.
func (r *run) bootLayers(t *bootTemplate, readyMS float64) error {
	dir := filepath.Join(r.env.runDir, "boot-replay")
	if err := copyDir(t.dir, dir); err != nil {
		return err
	}
	storePath := filepath.Join(dir, "store.jsonl")
	var (
		st   *store.Store
		w    *wal.WAL
		recs []wal.Record
		err  error
	)
	rid := r.tr.request()
	root, endRoot := r.tr.begin("replay.boot", rid, 0)
	span := func(name string, fn func()) float64 {
		_, end := r.tr.begin(name, rid, root)
		fn()
		return millis(end())
	}
	load := span("store.load_binary", func() { st, _, err = store.LoadPreferred(storePath) })
	if err != nil {
		return err
	}
	replay := span("wal.replay", func() { w, recs, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncAlways}) })
	if err != nil {
		return err
	}
	apply := span("store.apply_replay", func() {
		for _, rec := range recs {
			st.Put(store.Entry{
				Triple:  triple.Triple{Subject: rec.Subject, Predicate: rec.Predicate, Object: rec.Object},
				Sources: []string{rec.Source},
				Label:   rec.Label,
			})
		}
	})
	st.TrackShards(numShards)
	ms, _, err := r.rebuildSpans(st, nil, nil, "", nil)
	endRoot()
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	r.set("store.load_binary_ms", single(load))
	r.set("wal.replay_ms", single(replay))
	r.set("wal.replay_records", single(float64(len(recs))))
	r.set("store.apply_replay_ms", single(apply))
	sum := load + replay + apply
	for name, v := range ms {
		r.set(name, single(v))
		if name != "shard.route_ms" && name != "shard.build_ms" && name != "corrfuse.shards_reused_ratio" {
			sum += v // the two shard timings are inside corrfuse.train_ms
		}
	}
	r.set("process.boot_other_ms", single(readyMS-sum))

	// The fallback load, and what the two formats cost in space.
	var jst *store.Store
	r.set("store.load_jsonl_ms", single(r.tr.timedMS("store.load_jsonl", func() { jst, err = store.Load(storePath) })))
	if err != nil {
		return err
	}
	for path, name := range map[string]string{storePath: "store.jsonl_bytes_per_triple", store.BinaryPath(storePath): "store.cfsn_bytes_per_triple"} {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		r.set(name, single(float64(info.Size())/float64(jst.Len())))
	}
	return nil
}
