//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"corrfuse/internal/eval"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// serving is the set-up the three server workloads share: binaries, the
// seeded store on disk, and the oracle trained on it.
type serving struct {
	sd     *servingData
	st     *store.Store
	oracle *oracle
}

// setupServing builds the binaries and the seeded store; with trainOracle it
// also trains the oracle on that store (cold-boot trains its own later, on
// the state its template ends in).
func (r *run) setupServing(trainOracle bool) (*serving, error) {
	sv := &serving{}
	if err := r.step("go_build", r.env.buildBinaries); err != nil {
		return nil, err
	}
	if err := r.step("store_generate", func() error {
		sv.sd = genServing(r.cfg.seed, r.cfg.sc)
		sv.st = sv.sd.store(r.cfg.sc)
		return sv.st.Save(r.env.storePath())
	}); err != nil {
		return nil, err
	}
	if !trainOracle {
		return sv, nil
	}
	return sv, r.step("oracle_train", func() (err error) {
		sv.oracle, err = newOracle(sv.st, r.cfg.oracleSkew)
		return err
	})
}

// readPools builds the pre-serialised request pools of the read mix, each
// request carrying the oracle's answer for its full check.
func (sv *serving) readPools(seed int64, sc scale) [numOpKinds][]op {
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	zipf := newZipfSubjects(rng, len(sv.sd.subjects))
	var pools [numOpKinds][]op
	for i := 0; i < sc.scorePool; i++ {
		ts := make([]triple.Triple, scoreBulk)
		want := make([]expectation, scoreBulk)
		// The shares are exact, not drawn (the seed picks which triples,
		// never how many of a kind), so that the work in a request does not
		// move with the seed.
		unseen := rng.Perm(scoreBulk)[:unseenPerBulk]
		for j := range ts {
			ts[j] = triple.Triple{Subject: sv.sd.subjects[zipf.next()], Predicate: predicateName(rng.Intn(4)), Object: "v"}
		}
		for _, j := range unseen {
			ts[j].Object = fmt.Sprintf("never-%d", rng.Intn(1<<20))
		}
		for j := range ts {
			want[j] = sv.oracle.expect(ts[j])
		}
		body := appendScoreBody(nil, ts)
		pools[opScore] = append(pools[opScore], op{
			kind:  opScore,
			body:  body,
			req:   request("POST", "/v1/score", body),
			check: func(body []byte) error { return checkScore(body, want) },
		})
	}
	for i := 0; i < sc.listPool; i++ {
		subject := sv.sd.subjects[zipf.next()]
		if i%hubEvery == 0 {
			subject = hubSubject
		}
		pools[opSubject] = append(pools[opSubject], op{
			kind:    opSubject,
			path:    "/v1/subject/" + url.PathEscape(subject),
			subject: subject,
			req:     request("GET", "/v1/subject/"+url.PathEscape(subject), nil),
			check:   func(body []byte) error { return sv.oracle.checkSubject(body, subject) },
		})
		t := triple.Triple{Subject: sv.sd.subjects[zipf.next()], Predicate: predicateName(rng.Intn(4)), Object: "v"}
		q := url.Values{"subject": {t.Subject}, "predicate": {t.Predicate}, "object": {t.Object}}
		pools[opTriple] = append(pools[opTriple], op{
			kind:  opTriple,
			req:   request("GET", "/v1/triple?"+q.Encode(), nil),
			check: func(body []byte) error { return sv.oracle.checkTriple(body, t) },
		})
	}
	return pools
}

// sweep scores every triple of ts through c in bulk requests, checks each
// against want (every response fully parsed) and returns the served
// probabilities.
func (r *run) sweep(c *conn, ts []triple.Triple, want func(triple.Triple) expectation) []float64 {
	probs := make([]float64, len(ts))
	for lo := 0; lo < len(ts); lo += scoreBulk {
		hi := min(lo+scoreBulk, len(ts))
		exp := make([]expectation, hi-lo)
		for i := range exp {
			exp[i] = want(ts[lo+i])
		}
		r.attempt(1)
		status, body, err := c.do(request("POST", "/v1/score", appendScoreBody(nil, ts[lo:hi])))
		var resp *scoreResponse
		if err == nil && status == 200 {
			resp, err = parseScore(body, exp)
		}
		if err != nil || status != 200 {
			r.fail("sweep [%d,%d): status %d: %v", lo, hi, status, err)
			continue
		}
		for i, res := range resp.Results {
			probs[lo+i] = res.Probability
		}
	}
	return probs
}

// answerF1 is the F1 of the served probabilities (accept above 0.5) of the
// seed store's triples against the truth they were generated from — the
// quality of what a client of the service is told, unlabelled triples
// included.
func (sv *serving) answerF1(r *run, c *conn, want func(triple.Triple) expectation) float64 {
	ts := make([]triple.Triple, len(sv.sd.truth))
	for i := range ts {
		ts[i] = sv.sd.triple(i)
	}
	probs := r.sweep(c, ts, want)
	return eval.Classify(probs, sv.sd.truth, 0.5).F1()
}

// readHeavy is the read-heavy workload; see README.md.
func (r *run) readHeavy() error {
	sv, err := r.setupServing(true)
	if err != nil {
		return err
	}
	var pools [numOpKinds][]op
	if err := r.step("requests", func() error {
		pools = sv.readPools(r.cfg.seed, r.cfg.sc)
		return nil
	}); err != nil {
		return err
	}
	var srv *server
	if err := r.step("server_boot", func() (err error) {
		srv, err = r.env.startFused(r.env.storePath(), "-persist", "-")
		return err
	}); err != nil {
		return err
	}
	defer srv.kill()

	conns := make([]*conn, numConns)
	mixes := make([]*opMix, numConns)
	for i := range conns {
		if conns[i], err = dial(srv.addr); err != nil {
			return err
		}
		defer conns[i].close()
		mixes[i] = &opMix{rng: rand.New(rand.NewSource(r.cfg.seed*97 + int64(i))), pools: pools}
	}
	total := time.Duration(r.cfg.seconds * float64(time.Second))
	half := (total / 2).Truncate(window)
	if half < window {
		half = window
	}

	before, err := srv.scrape()
	if err != nil {
		return err
	}
	r.phase(conns, mixes, min(time.Second, half), 0, false) // warm-up: connections, pools, caches

	// Phase A: closed loop, the capacity two waiting callers see. In the
	// traced run its second half records client spans, and the difference
	// between the halves is the tracing overhead.
	var closed, closedTraced [][]rec
	if r.tr == nil {
		closed = r.phase(conns, mixes, half, 0, false)
	} else {
		closed = r.phase(conns, mixes, half/2, 0, false)
		closedTraced = r.phase(conns, mixes, half/2, 0, true)
	}

	// Phase B: open loop at a fixed rate, latency from when each request
	// was due; the same number of requests on every commit, so CPU per
	// request compares.
	interval := time.Duration(numConns) * time.Second / time.Duration(r.cfg.sc.openRate)
	self0 := selfCPU()
	sampler := sampleCPU(srv.pid(), time.Now())
	open := r.phase(conns, mixes, half, interval, r.tr != nil)
	cpuWindows, serverCPU := sampler.finish()
	self := selfCPU() - self0
	after, err := srv.scrape()
	if err != nil {
		return err
	}

	f1 := sv.answerF1(r, conns[0], sv.oracle.expect)
	rssKB, err := procStatusKB(srv.pid(), "VmHWM")
	if err != nil {
		return err
	}

	var late []float64
	for _, rs := range open {
		for _, rc := range rs {
			late = append(late, micros(rc.late))
		}
	}
	lateP99 := percentile(late, 99)
	nOpen := countRecs(open)
	if nOpen == 0 || countRecs(closed) == 0 {
		return fmt.Errorf("read-heavy: no operation completed (%v)", r.failures)
	}
	// The generator guards: past them the socket numbers describe the
	// harness, not the server.
	switch {
	case !r.cfg.sc.guards:
	case self > serverCPU:
		return fmt.Errorf("read-heavy: generator used %v of CPU in the fixed-rate phase, the server %v: the generator is the bottleneck, nothing to report", self, serverCPU)
	case lateP99 > 1000:
		return fmt.Errorf("read-heavy: generator sent %.0f µs late at p99 in the fixed-rate phase (limit 1000): nothing to report", lateP99)
	}

	closedFor := half
	if r.tr != nil {
		closedFor = half / 2
	}
	counts, lats := windows(closed, closedFor, opScore)
	_, subjectLats := windows(closed, closedFor, opSubject)
	scoreP50 := lowerQuartile(windowMedians(lats))
	r.set("setup_s", single(r.setupSeconds()))
	r.set("op_ms", scoreP50)
	r.set("alt_op_ms", lowerQuartile(windowMedians(subjectLats)))
	openCounts, openLats := windows(open, half, opScore)
	var p99s, cpuPerOp []float64
	for w, l := range openLats {
		if len(l) > 0 {
			p99s = append(p99s, percentile(l, 99))
		}
		if w < len(cpuWindows) && openCounts[w] > 0 {
			cpuPerOp = append(cpuPerOp, micros(cpuWindows[w])/openCounts[w])
		}
	}
	if len(cpuPerOp) == 0 { // a phase shorter than two windows
		cpuPerOp = []float64{micros(serverCPU) / float64(nOpen)}
	}
	r.set("cpu_us_per_op", lowerQuartile(cpuPerOp))
	r.set("peak_rss_mb", single(rssKB/1024))
	r.set("answer_f1", single(f1))
	if r.tr == nil {
		return nil
	}

	// Per-layer metrics of the traced run.
	r.set("loadgen.late_p99_us", tail(late, 99))
	r.set("loadgen.cpu_share", single(float64(self)/float64(self+serverCPU)))
	_, tracedLats := windows(closedTraced, half/2, opScore)
	if tp := lowerQuartile(windowMedians(tracedLats)).Value; scoreP50.Value > 0 && tp > 0 {
		r.set("loadgen.trace_overhead_pct", single((tp-scoreP50.Value)/scoreP50.Value*100))
	}
	rtt, err := nullRTT(2000)
	if err != nil {
		return err
	}
	r.set("loadgen.null_rtt_us", single(rtt))
	r.set("read_ops_per_s", summarize(counts))
	r.set("score_p99_us", scaled(summarize(p99s), 1000))
	r.set("client.subject_p50_us", scaled(summarize(windowMedians(subjectLats)), 1000))
	_, tripleLats := windows(closed, closedFor, opTriple)
	r.set("client.triple_p50_us", scaled(summarize(windowMedians(tripleLats)), 1000))
	r.set("process.read_rss_mb", single(rssKB/1024))
	for stage, name := range map[string]string{"decode": "serve.stage_decode_us", "score": "serve.stage_score_us"} {
		if v, ok := histMean(before, after, "corrfused_request_stage_seconds", "stage", stage, time.Microsecond); ok {
			r.set(name, single(v))
		}
	}
	handlerP50, err := r.readLayers(sv, pools)
	if err != nil {
		return err
	}
	r.set("net.score_overhead_us", single(scoreP50.Value*1000-handlerP50))
	return nil
}

// scaled multiplies a sample by k (a unit change).
func scaled(s sample, k float64) sample {
	return sample{Value: s.Value * k, Median: s.Median * k, Q1: s.Q1 * k, Q3: s.Q3 * k, N: s.N}
}
