//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

const (
	probeEvery   = 8  // every 8th batch is followed by a read-your-writes score
	numRefuses   = 8  // the script is this many segments, each ended by a /v1/refuse
	crashBatches = 32 // batches acknowledged between the last persist and the SIGKILL
)

// ingestConn is one connection's side of the ingest script.
type ingestConn struct {
	id     int
	c      *conn
	script *claimScript
	acked  []claim
	obs    []float64 // observe round trips, ms
	probes []float64 // read-your-writes score round trips, µs
	buf    []byte
	batch  []claim
	// tracing turns client spans on.
	tracing bool
	spans   []span
}

// observe sends the script's next batch and records its acknowledgment.
func (ic *ingestConn) observe(r *run, sd *servingData) bool {
	ic.batch = ic.script.next(ic.batch)
	ic.buf = sd.appendObserveBody(ic.buf[:0], ic.batch, ic.id)
	req := request("POST", "/v1/observe", ic.buf)
	r.attempt(1)
	send := time.Now()
	status, body, err := ic.c.do(req)
	done := time.Now()
	if err == nil && status == 200 && ic.script.batch%fullCheckEvery == 0 {
		err = checkObserve(body, ic.batch, sd, ic.id)
	}
	if err != nil || status != 200 {
		r.fail("observe batch %d on connection %d: status %d: %v", ic.script.batch, ic.id, status, err)
		return err == nil || status != 0
	}
	ic.acked = append(ic.acked, ic.batch...)
	ic.obs = append(ic.obs, millis(done.Sub(send)))
	if ic.tracing {
		ic.spans = append(ic.spans, span{Name: "client.observe", Start: int64(send.Sub(r.tr.epoch)), End: int64(done.Sub(r.tr.epoch))})
	}
	return true
}

// checkObserve parses an observe acknowledgment completely: one result per
// claim, in order, each with a live probability, and a WAL sequence.
func checkObserve(body []byte, batch []claim, sd *servingData, conn int) error {
	var resp struct {
		Results []struct {
			Triple      triple.Triple `json:"triple"`
			Probability float64       `json:"probability"`
			Live        bool          `json:"live"`
		} `json:"results"`
		WALSeq uint64 `json:"walSeq"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(batch) || resp.WALSeq == 0 {
		return fmt.Errorf("acknowledgment has %d results (want %d), walSeq %d", len(resp.Results), len(batch), resp.WALSeq)
	}
	for i, res := range resp.Results {
		if res.Triple != sd.claimTriple(batch[i], conn) || !res.Live || !(res.Probability >= 0 && res.Probability <= 1) {
			return fmt.Errorf("result %d: %v live=%v p=%v", i, res.Triple, res.Live, res.Probability)
		}
	}
	return nil
}

// probe scores the batch just acknowledged plus as many snapshot triples on
// the same connection: read-your-writes means none comes back unknown.
func (ic *ingestConn) probe(r *run, sd *servingData) {
	ts := make([]triple.Triple, 0, 2*len(ic.batch))
	for _, c := range ic.batch {
		ts = append(ts, sd.claimTriple(c, ic.id))
	}
	for i := range ic.batch {
		ts = append(ts, sd.triple((ic.script.batch*131+i*17)%len(sd.truth)))
	}
	r.attempt(1)
	begin := time.Now()
	status, body, err := ic.c.do(request("POST", "/v1/score", appendScoreBody(nil, ts)))
	lat := time.Since(begin)
	var resp scoreResponse
	if err == nil && status == 200 {
		err = json.Unmarshal(body, &resp)
	}
	if err == nil && len(resp.Results) != len(ts) {
		err = fmt.Errorf("%d results for %d triples", len(resp.Results), len(ts))
	}
	if err == nil && resp.SnapshotVersion != resp.IndexVersion {
		err = fmt.Errorf("response mixes generations")
	}
	for i, res := range resp.Results {
		if err == nil && res.Basis == "unknown" {
			err = fmt.Errorf("triple %d (%v) unknown right after its acknowledgment", i, res.Triple)
		}
	}
	if err != nil || status != 200 {
		r.fail("read-your-writes probe on connection %d: status %d: %v", ic.id, status, err)
		return
	}
	ic.probes = append(ic.probes, micros(lat))
}

// applyClaims puts acknowledged claims into a store the way the server's
// ingest does.
func applyClaims(st *store.Store, sd *servingData, conn int, claims []claim) {
	for _, c := range claims {
		st.Put(store.Entry{Triple: sd.claimTriple(c, conn), Sources: []string{sd.sources[c.source]}})
	}
}

// checkDurable verifies over /v1/source listings that every acknowledged
// claim is in the restarted server's store.
func (r *run) checkDurable(addr string, sd *servingData, conns []*ingestConn) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	for si, name := range sd.sources {
		status, body, err := c.doWithin(request("GET", "/v1/source/"+url.PathEscape(name), nil), bootTimeout)
		var resp entriesResponse
		if err == nil && status == 200 {
			err = json.Unmarshal(body, &resp)
		}
		if err != nil || status != 200 {
			return fmt.Errorf("/v1/source/%s: status %d: %v", name, status, err)
		}
		have := make(map[triple.Triple]bool, len(resp.Results))
		for _, res := range resp.Results {
			have[res.Triple] = true
		}
		for _, ic := range conns {
			for _, cl := range ic.acked {
				if int(cl.source) != si {
					continue
				}
				r.attempt(1)
				if t := sd.claimTriple(cl, ic.id); !have[t] {
					r.fail("acknowledged claim lost: %s provides %v", name, t)
				}
			}
		}
	}
	return nil
}

// segment is what one of the script's numRefuses parts measured: both
// connections ingesting a fixed number of batches, then one /v1/refuse
// while they wait.
type segment struct {
	observeMS   float64 // median observe round trip
	cpuPerClaim float64 // server CPU µs per acknowledged claim while ingesting
	refuseMS    float64
}

// ingestRefuse is the ingest-refuse workload; see README.md.
func (r *run) ingestRefuse() error {
	sv, err := r.setupServing(true)
	if err != nil {
		return err
	}
	flags := walFlags(filepath.Join(r.env.runDir, "wal"))
	var srv *server
	if err := r.step("server_boot", func() (err error) {
		srv, err = r.env.startFused(r.env.storePath(), flags...)
		return err
	}); err != nil {
		return err
	}
	defer func() { srv.kill() }()

	conns := make([]*ingestConn, numConns)
	for i := range conns {
		c, err := dial(srv.addr)
		if err != nil {
			return err
		}
		defer c.close()
		conns[i] = &ingestConn{id: i, c: c, script: newClaimScript(sv.sd, r.cfg.seed, i), tracing: r.tr != nil}
	}

	// A fixed script, not a duration: --seconds sizes it (ingestRate batches
	// per connection for each second asked for, which takes about that long
	// on the reference box) and from there on every run and every commit
	// sends the same batches in the same segments, so each refuse rebuilds
	// the same store and the script's wall time is the throughput.
	perSegment := max(1, int(r.cfg.seconds*float64(r.cfg.sc.ingestRate))/numRefuses)
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	io0, err := procWriteBytes(srv.pid())
	if err != nil {
		return err
	}
	self0 := selfCPU()
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	segments := make([]segment, 0, numRefuses)
	var all []float64 // every observe round trip of the script, ms
	begin := time.Now()
	for len(segments) < numRefuses {
		from := [numConns]int{len(conns[0].obs), len(conns[1].obs)}
		segCPU, err := procCPU(srv.pid())
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		for _, ic := range conns {
			wg.Add(1)
			go func(ic *ingestConn) {
				defer wg.Done()
				for i := 0; i < perSegment && ic.observe(r, sv.sd); i++ {
					if ic.script.batch%probeEvery == 0 {
						ic.probe(r, sv.sd)
					}
				}
			}(ic)
		}
		wg.Wait() // the barrier: the store a refuse captures does not depend on who was faster
		lats := append(append([]float64(nil), conns[0].obs[from[0]:]...), conns[1].obs[from[1]:]...)
		if len(lats) == 0 {
			return fmt.Errorf("ingest-refuse: nothing was acknowledged in segment %d (%v)", len(segments), r.failures)
		}
		cpu, err := procCPU(srv.pid())
		if err != nil {
			return err
		}
		r.attempt(1)
		d, err := srv.refuse(conns[0].c)
		if err != nil {
			r.fail("%v", err)
		}
		all = append(all, lats...)
		segments = append(segments, segment{
			observeMS:   median(lats),
			cpuPerClaim: micros(cpu-segCPU) / float64(len(lats)*batchClaims),
			refuseMS:    millis(d),
		})
	}
	wall := time.Since(begin)
	self := selfCPU() - self0
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	io1, err := procWriteBytes(srv.pid())
	if err != nil {
		return err
	}
	rssKB, err := procStatusKB(srv.pid(), "VmHWM")
	if err != nil {
		return err
	}
	after, err := srv.scrape()
	if err != nil {
		return err
	}

	// Check 1: the script ended with a (partial) re-fusion; every triple's
	// served probability against a model trained from scratch on seed +
	// claims.
	acked := 0
	mirror := sv.sd.store(r.cfg.sc)
	var fresh []triple.Triple
	for _, ic := range conns {
		acked += len(ic.acked)
		applyClaims(mirror, sv.sd, ic.id, ic.acked)
		for _, cl := range ic.acked {
			if cl.fresh > 0 {
				fresh = append(fresh, sv.sd.claimTriple(cl, ic.id))
			}
		}
	}
	final, err := newOracle(mirror, r.cfg.oracleSkew)
	if err != nil {
		return err
	}
	r.sweep(conns[0].c, fresh, final.expect)
	sv.answerF1(r, conns[0].c, final.expect)

	// Check 2: acknowledge a fixed burst past the persist, SIGKILL, restart
	// on the same directory: the WAL must hand back exactly the burst, no
	// acknowledged claim may be missing, and the rebuilt model must again
	// match one trained from scratch.
	burst := 0
	for i := 0; i < crashBatches && conns[1].observe(r, sv.sd); i++ {
		burst += batchClaims
	}
	srv.kill()
	restarted, err := r.env.startFused(r.env.storePath(), flags...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	srv = restarted
	r.attempt(1)
	if n, err := srv.recoveredRecords(); err != nil || n != burst {
		r.fail("restart recovered %d WAL records, want the %d acknowledged after the last persist: %v", n, burst, err)
	}
	if err := r.checkDurable(srv.addr, sv.sd, conns); err != nil {
		return err
	}
	applyClaims(mirror, sv.sd, 1, conns[1].acked[len(conns[1].acked)-burst:])
	if final, err = newOracle(mirror, r.cfg.oracleSkew); err != nil {
		return err
	}
	rc, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer rc.close()
	f1 := sv.answerF1(r, rc, final.expect)

	r.set("setup_s", single(r.setupSeconds()))
	r.set("op_ms", lowerQuartile(column(segments, func(s segment) float64 { return s.observeMS })))
	r.set("alt_op_ms", summarize(column(segments, func(s segment) float64 { return s.refuseMS })))
	r.set("cpu_us_per_op", lowerQuartile(column(segments, func(s segment) float64 { return s.cpuPerClaim })))
	r.set("peak_rss_mb", single(rssKB/1024))
	r.set("answer_f1", single(f1))
	if r.tr == nil {
		return nil
	}

	scripted := float64(acked)
	var probes []float64
	for _, ic := range conns {
		r.tr.adopt(ic.spans)
		probes = append(probes, ic.probes...)
	}
	r.set("ingest_obs_per_s", single(scripted/wall.Seconds()))
	r.set("client.observe_p99_ms", tail(all, 99))
	r.set("client.probe_score_p50_us", summarize(probes))
	r.set("process.ingest_cpu_us_per_obs", single(micros(cpu1-cpu0)/scripted))
	r.set("process.ingest_write_bytes_per_obs", single((io1-io0)/scripted))
	r.set("loadgen.cpu_share", single(float64(self)/float64(self+cpu1-cpu0)))
	for stage, name := range map[string]string{"ingest": "serve.stage_ingest_us", "wal_commit": "serve.stage_wal_commit_us"} {
		if v, ok := histMean(before, after, "corrfused_request_stage_seconds", "stage", stage, time.Microsecond); ok {
			r.set(name, single(v))
		}
	}
	if v, ok := histMean(before, after, "corrfused_wal_commit_wait_seconds", "", "", time.Microsecond); ok {
		r.set("wal.commit_wait_us", single(v))
	}
	if fs, ok := after["corrfused_wal_fsyncs_total"]; ok && fs > before["corrfused_wal_fsyncs_total"] {
		fs -= before["corrfused_wal_fsyncs_total"]
		r.set("wal.fsyncs_per_batch", single(fs/float64(len(all))))
		// Two connections commit concurrently: records made durable per
		// fsync is what group commit buys.
		r.set("wal.group_commit_size", single(scripted/fs))
	}
	rtt, err := nullRTT(2000)
	if err != nil {
		return err
	}
	r.set("loadgen.null_rtt_us", single(rtt))
	return r.ingestLayers(sv)
}
