package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"corrfuse"
	"corrfuse/internal/dataset"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// liveTol bounds how far a live answer may sit from the model's answer for
// the same pattern after a rebuild: the two multiply the same factors, in an
// order a source renumbering can change.
const liveTol = 1e-12

// modelRef answers the way the server must: the snapshot's model for batch
// answers, and for a triple claimed since the capture by a source that model
// knows, the answer of a Rebuild over the capture plus those claims — which
// under global scope, with claims only on unlabelled triples, is the
// snapshot's model scoring the claimed pattern.
type modelRef struct {
	sn *snapshot
	// d is the capture plus every claim since from a known source; model
	// is the Rebuild over it, nil until the next answer needs it.
	d     *corrfuse.Dataset
	model *corrfuse.Fuser
}

// newModelRef builds the reference over srv's current snapshot and replays
// the claims that raced its build (the journal suffix).
func newModelRef(t *testing.T, srv *Server, suffix []Observation) *modelRef {
	t.Helper()
	sn := srv.snap.Load()
	ref := &modelRef{sn: sn, d: sn.data.Clone()}
	for _, o := range suffix {
		ref.observe(t, o)
	}
	return ref
}

func obsTriple(o Observation) triple.Triple {
	return triple.Triple{Subject: o.Subject, Predicate: o.Predicate, Object: o.Object}
}

// observe applies one claim to the reference and returns the acknowledgment
// the server owes for it.
func (r *modelRef) observe(t *testing.T, o Observation) ObserveResult {
	t.Helper()
	tt := obsTriple(o)
	res := ObserveResult{Triple: tt}
	if sid, known := r.sn.data.SourceID(o.Source); known {
		r.d.Observe(sid, tt)
		r.model = nil
	} else {
		res.PendingSource = true
	}
	st, basis := r.answer(t, tt)
	res.Probability, res.Live = st.Probability, !res.PendingSource || basis == basisLive
	return res
}

// answer is the reference's freshest answer for tt and which side gave it
// (Sources and Label are the store's business, not the boundary's, and stay
// zero).
func (r *modelRef) answer(t *testing.T, tt triple.Triple) (st TripleStatus, basis string) {
	t.Helper()
	st, basis = TripleStatus{Triple: tt}, basisUnknown
	snapProviders := 0
	if id, ok := r.sn.data.TripleID(tt); ok {
		if snapProviders = len(r.sn.data.Providers(id)); snapProviders > 0 {
			st.BatchProbability = r.sn.fuser.ProbabilityByID(id)
			st.Accepted, _ = r.sn.fuser.Decide(tt)
			st.Probability, basis = st.BatchProbability, basisSnapshot
		}
	}
	if id, ok := r.d.TripleID(tt); ok && len(r.d.Providers(id)) > snapProviders {
		if r.model == nil {
			m, err := r.sn.fuser.Rebuild(r.d)
			if err != nil {
				t.Fatal(err)
			}
			r.model = m
		}
		st.Probability = r.model.ProbabilityByID(id)
		st.Live, basis = true, basisLive
	}
	return st, basis
}

// score is the reference's /v1/score result for tt.
func (r *modelRef) score(t *testing.T, tt triple.Triple) ScoreResult {
	st, basis := r.answer(t, tt)
	res := ScoreResult{Triple: tt, Probability: st.Probability, Basis: basis}
	if basis == basisSnapshot {
		res.Accepted = &st.Accepted
	}
	return res
}

// near compares a served probability with the reference's: == on the
// snapshot side, within liveTol on the live side.
func near(got, want float64, live bool) bool {
	return got == want || live && math.Abs(got-want) <= liveTol
}

// TestDeltaOverlayEqualsSeededScorer is the differential proof that the
// overlay, holding only post-capture claims, answers with the snapshot's
// model: over the golden fixture store and a seeded random claim stream —
// known sources, a never-seen source, duplicates of snapshot claims, new
// provenance on unlabelled snapshot triples, brand-new triples, and claims
// landing mid-rebuild — every /v1/observe acknowledgment, /v1/score result
// and /v1/triple status equals the reference's, a model rebuilt over the
// capture seeded with the claims: batch answers with ==, live ones within
// liveTol, across three re-fusions.
func TestDeltaOverlayEqualsSeededScorer(t *testing.T) {
	st, err := store.Load(filepath.Join("testdata", "golden_store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, st, Config{
		Options:        corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1, Shards: 2, Parallelism: 2},
		PartialRebuild: true,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(20140622))
	ref := newModelRef(t, srv, nil)
	// touched collects every triple the stream claimed, checked after
	// every round next to all snapshot triples and one nobody knows.
	touched := map[triple.Triple]bool{}

	// nextClaim draws one claim of the stream's five kinds against the
	// reference's current snapshot. A claim that gives a labelled triple a
	// provider would move the model; the stream has none.
	nextClaim := func(round int) Observation {
		d := ref.sn.data
		id := triple.TripleID(rng.Intn(d.NumTriples()))
		for len(d.Providers(id)) == 0 {
			id = triple.TripleID(rng.Intn(d.NumTriples()))
		}
		tt := d.Triple(id)
		source := d.SourceName(triple.SourceID(rng.Intn(d.NumSources())))
		switch k := rng.Intn(5); {
		case k == 0 || k == 1 && d.Label(id) != triple.Unknown: // duplicate of a snapshot claim
			provs := d.Providers(id)
			source = d.SourceName(provs[rng.Intn(len(provs))])
		case k == 1: // any known source on an unlabelled snapshot triple: new provenance or a duplicate
		case k == 2: // never-seen source, on a snapshot triple or a new one
			source = fmt.Sprintf("newcomer-%d", round)
			if rng.Intn(2) == 0 {
				tt = triple.Triple{Subject: fmt.Sprintf("x%d", rng.Intn(4)), Predicate: "orbit", Object: "sun"}
			}
		default: // brand-new triple (a small pool, so claims repeat and pile up)
			tt = triple.Triple{Subject: fmt.Sprintf("x%d", rng.Intn(4)), Predicate: "orbit", Object: fmt.Sprintf("o%d", rng.Intn(2))}
		}
		touched[tt] = true
		return Observation{Source: source, Subject: tt.Subject, Predicate: tt.Predicate, Object: tt.Object}
	}

	checkReads := func(when string) {
		t.Helper()
		d := ref.sn.data
		ask := []triple.Triple{{Subject: "nobody", Predicate: "claims", Object: "this"}}
		for id := 0; id < d.NumTriples(); id++ {
			ask = append(ask, d.Triple(triple.TripleID(id)))
		}
		for tt := range touched {
			ask = append(ask, tt)
		}
		var scored struct {
			Results []ScoreResult `json:"results"`
		}
		postInto(t, ts.URL+"/v1/score", ScoreRequest{Triples: ask}, &scored)
		if len(scored.Results) != len(ask) {
			t.Fatalf("%s: %d score results for %d triples", when, len(scored.Results), len(ask))
		}
		for i, tt := range ask {
			got, want := scored.Results[i], ref.score(t, tt)
			if got.Triple != want.Triple || !near(got.Probability, want.Probability, want.Basis == basisLive) || got.Basis != want.Basis ||
				(got.Accepted == nil) != (want.Accepted == nil) || (got.Accepted != nil && *got.Accepted != *want.Accepted) {
				t.Errorf("%s: score %v = %s, reference %s", when, tt, show(got), show(want))
			}
			if _, stored := srv.store.Get(tt); !stored {
				continue
			}
			var status struct {
				Result TripleStatus `json:"result"`
			}
			getInto(t, tripleURL(ts.URL, tt), &status)
			gs := status.Result
			ws, _ := ref.answer(t, tt)
			if gs.Triple != ws.Triple || !near(gs.Probability, ws.Probability, ws.Live) || gs.Live != ws.Live ||
				gs.BatchProbability != ws.BatchProbability || gs.Accepted != ws.Accepted {
				t.Errorf("%s: triple %v = %+v, reference %+v", when, tt, gs, ws)
			}
		}
	}

	// checkAck compares one acknowledgment with the one the reference owes.
	checkAck := func(when string, o Observation, got ObserveResult) {
		t.Helper()
		want := ref.observe(t, o)
		if got.Triple != want.Triple || got.Live != want.Live || got.PendingSource != want.PendingSource ||
			!near(got.Probability, want.Probability, want.Live) {
			t.Errorf("%s: observe %+v = %+v, reference %+v", when, o, got, want)
		}
	}

	observe := func(when string, claims []Observation) {
		t.Helper()
		var body any = map[string]any{"observations": claims}
		if len(claims) == 1 {
			body = claims[0]
		}
		var ack struct {
			Results []ObserveResult `json:"results"`
		}
		postInto(t, ts.URL+"/v1/observe", body, &ack)
		if len(ack.Results) != len(claims) {
			t.Fatalf("%s: %d acknowledgments for %d claims", when, len(ack.Results), len(claims))
		}
		for i, o := range claims {
			checkAck(when, o, ack.Results[i])
		}
	}

	checkReads("quiet boot")
	for round := 0; round < 3; round++ {
		for i := 0; i < 24; i++ {
			batch := []Observation{nextClaim(round)}
			for rng.Intn(3) == 0 {
				batch = append(batch, nextClaim(round))
			}
			observe(fmt.Sprintf("round %d claim %d", round, i), batch)
			if i%6 == 5 {
				checkReads(fmt.Sprintf("round %d after claim %d", round, i))
			}
		}

		// Re-fuse with claims landing mid-build: after the capture (the
		// journal suffix the swap replays) and again after training. They
		// hit the overlay of the snapshot still serving, so the outgoing
		// reference acknowledges them; the next one replays them.
		var suffix []Observation
		srv.testStageHook = func(stage string) {
			if stage != "capture" && stage != "train" {
				return
			}
			for i := 0; i < 4; i++ {
				o := nextClaim(round)
				suffix = append(suffix, o)
				got, _, err := srv.ingest(o)
				if err != nil {
					t.Errorf("round %d mid-%s: ingest %+v: %v", round, stage, o, err)
				}
				checkAck(fmt.Sprintf("round %d mid-%s", round, stage), o, got)
			}
		}
		_, skipped, err := srv.rebuild(context.Background(), false, false)
		srv.testStageHook = nil
		if err != nil || skipped || len(suffix) != 8 {
			t.Fatalf("round %d: rebuild skipped=%v err=%v with %d mid-build claims, want a rebuild with 8", round, skipped, err, len(suffix))
		}
		ref = newModelRef(t, srv, suffix)
		checkReads(fmt.Sprintf("round %d after the re-fusion", round))
	}
}

// TestLiveAnswersEqualNextRefuse: under global scope, for every supervised
// method, a seeded random sequence of unlabelled claims from known sources —
// new provenance on unlabelled snapshot triples, brand-new triples,
// duplicates of snapshot claims, and claims landing mid-rebuild — is
// answered live by /v1/score as the next refuse answers it, within liveTol.
func TestLiveAnswersEqualNextRefuse(t *testing.T) {
	base, err := dataset.SyntheticCorrelated(1, false)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id < base.NumTriples(); id += 2 {
		base.SetLabel(base.Triple(triple.TripleID(id)), triple.Unknown)
	}
	for _, method := range []corrfuse.Method{corrfuse.PrecRec, corrfuse.PrecRecCorr, corrfuse.PrecRecCorrAggressive, corrfuse.PrecRecCorrElastic} {
		srv := newServer(t, store.FromDataset(base), Config{Options: corrfuse.Options{Method: method, Parallelism: 2}})
		ts := httptest.NewServer(srv.Handler())
		rng := rand.New(rand.NewSource(int64(method) + 58))

		nextClaim := func() Observation {
			d := srv.snap.Load().data
			id := triple.TripleID(rng.Intn(d.NumTriples()))
			tt := d.Triple(id)
			source := d.SourceName(triple.SourceID(rng.Intn(d.NumSources())))
			switch k := rng.Intn(4); {
			case k == 0 && len(d.Providers(id)) > 0, k == 1 && d.Label(id) != triple.Unknown && len(d.Providers(id)) > 0: // duplicate
				provs := d.Providers(id)
				source = d.SourceName(provs[rng.Intn(len(provs))])
			case k <= 1 && d.Label(id) == triple.Unknown: // any known source on an unlabelled snapshot triple
			default: // a brand-new triple from a small pool
				tt = triple.Triple{Subject: fmt.Sprintf("fresh-%d", rng.Intn(20)), Predicate: "p", Object: "v"}
			}
			return Observation{Source: source, Subject: tt.Subject, Predicate: tt.Predicate, Object: tt.Object}
		}
		score := func(tts []triple.Triple) []ScoreResult {
			var scored struct {
				Results []ScoreResult `json:"results"`
			}
			postInto(t, ts.URL+"/v1/score", ScoreRequest{Triples: tts}, &scored)
			if len(scored.Results) != len(tts) {
				t.Fatalf("%v: %d score results for %d triples", method, len(scored.Results), len(tts))
			}
			return scored.Results
		}
		// live holds the latest live answer of every claimed triple the
		// next refuse has not yet answered from its snapshot.
		live := map[triple.Triple]float64{}
		record := func(o Observation, res ObserveResult) {
			if res.PendingSource || !res.Live {
				t.Fatalf("%v: claim %+v from a known source acknowledged %+v", method, o, res)
			}
			live[obsTriple(o)] = res.Probability
		}
		// settle checks every recorded triple against the snapshot a refuse
		// just swapped in; a triple claimed mid-build is still live, and
		// must still answer as before. settled and inexact count the
		// answers checked and those within liveTol but not bit-identical.
		settled, inexact := 0, 0
		settle := func(when string) {
			var tts []triple.Triple
			for tt := range live {
				tts = append(tts, tt)
			}
			for i, res := range score(tts) {
				want := live[tts[i]]
				if math.Abs(res.Probability-want) > liveTol {
					t.Errorf("%v %s: %v live %v, now %v (%s)", method, when, tts[i], want, res.Probability, res.Basis)
				}
				if res.Basis == basisSnapshot {
					delete(live, tts[i])
				}
				if settled++; res.Probability != want {
					inexact++
				}
			}
		}

		for round := 0; round < 4; round++ {
			for i := 0; i < 40; i++ {
				batch := []Observation{nextClaim()}
				for rng.Intn(3) == 0 {
					batch = append(batch, nextClaim())
				}
				var ack struct {
					Results []ObserveResult `json:"results"`
				}
				postInto(t, ts.URL+"/v1/observe", map[string]any{"observations": batch}, &ack)
				for j, o := range batch {
					record(o, ack.Results[j])
				}
			}
			var tts []triple.Triple
			for tt := range live {
				tts = append(tts, tt)
			}
			for i, res := range score(tts) {
				if res.Probability != live[tts[i]] {
					t.Errorf("%v round %d: %v scores %v (%s), acknowledged %v", method, round, tts[i], res.Probability, res.Basis, live[tts[i]])
				}
			}
			if round < 3 {
				srv.testStageHook = func(stage string) {
					if stage != "capture" && stage != "train" {
						return
					}
					for i := 0; i < 3; i++ {
						o := nextClaim()
						res, _, err := srv.ingest(o)
						if err != nil {
							t.Fatal(err)
						}
						record(o, res)
					}
				}
			}
			_, _, err := srv.rebuild(context.Background(), true, false)
			srv.testStageHook = nil
			if err != nil {
				t.Fatal(err)
			}
			settle(fmt.Sprintf("after refuse %d", round))
		}
		if len(live) != 0 {
			t.Errorf("%v: %d claimed triples still live after a quiet refuse", method, len(live))
		}
		t.Logf("%v: %d answers checked after refuses, %d of them not bit-identical", method, settled, inexact)
		ts.Close()
	}
}

func show(r ScoreResult) string {
	raw, _ := json.Marshal(r)
	return string(raw)
}

// postInto and getInto are postJSON/getJSON decoding into a typed value, so
// float64 fields compare with == against values computed in process.
func postInto(t *testing.T, url string, body, into any) {
	t.Helper()
	raw, err := json.Marshal(postJSON(t, url, body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatal(err)
	}
}

func getInto(t *testing.T, url string, into any) {
	t.Helper()
	out, code := getJSON(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %v", url, code, out)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatal(err)
	}
}
