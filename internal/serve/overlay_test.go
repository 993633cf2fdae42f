package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"corrfuse"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// seedOnline is the reference the delta overlay replaced: replay every
// observation of the captured dataset onto a freshly derived scorer, source
// by source. It lives here only, for TestDeltaOverlayEqualsSeededScorer.
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

// seededRef answers the way a server holding a fully seeded scorer did: the
// snapshot's model for batch answers, the seeded scorer plus every claim
// since the capture for live ones, the same freshness rule between them.
type seededRef struct {
	sn  *snapshot
	inc corrfuse.OnlineScorer
}

// newSeededRef seeds a reference over srv's current snapshot and replays the
// claims that raced its build (the journal suffix).
func newSeededRef(t *testing.T, srv *Server, suffix []Observation) *seededRef {
	t.Helper()
	sn := srv.snap.Load()
	inc, err := sn.fuser.Online(srv.cfg.PenalizeSilence)
	if err != nil {
		t.Fatal(err)
	}
	if err := seedOnline(inc, sn.data); err != nil {
		t.Fatal(err)
	}
	ref := &seededRef{sn: sn, inc: inc}
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
func (r *seededRef) observe(t *testing.T, o Observation) ObserveResult {
	t.Helper()
	tt := obsTriple(o)
	res := ObserveResult{Triple: tt}
	sid, known := r.sn.data.SourceID(o.Source)
	if !known {
		st, basis := r.answer(tt)
		res.Probability, res.Live, res.PendingSource = st.Probability, basis == basisLive, true
		return res
	}
	p, err := r.inc.Observe(sid, tt)
	if err != nil {
		t.Fatal(err)
	}
	res.Probability, res.Live = p, true
	return res
}

// answer is the reference's freshest answer for tt and which side gave it
// (Sources and Label are the store's business, not the boundary's, and stay
// zero).
func (r *seededRef) answer(tt triple.Triple) (st TripleStatus, basis string) {
	st, basis = TripleStatus{Triple: tt}, basisUnknown
	snapProviders := 0
	if id, ok := r.sn.data.TripleID(tt); ok {
		if snapProviders = len(r.sn.data.Providers(id)); snapProviders > 0 {
			st.BatchProbability = r.sn.fuser.ProbabilityByID(id)
			st.Accepted, _ = r.sn.fuser.Decide(tt)
			st.Probability, basis = st.BatchProbability, basisSnapshot
		}
	}
	if r.inc.Providers(tt) > snapProviders {
		st.Probability, _ = r.inc.Probability(tt)
		st.Live, basis = true, basisLive
	}
	return st, basis
}

// score is the reference's /v1/score result for tt.
func (r *seededRef) score(tt triple.Triple) ScoreResult {
	st, basis := r.answer(tt)
	res := ScoreResult{Triple: tt, Probability: st.Probability, Basis: basis}
	if basis == basisSnapshot {
		res.Accepted = &st.Accepted
	}
	return res
}

// TestDeltaOverlayEqualsSeededScorer is the differential proof that the
// overlay holding only post-capture claims loses nothing against a scorer
// seeded with the whole captured dataset: over the golden fixture store and
// a seeded random claim stream — known sources, a never-seen source,
// duplicates of snapshot claims, new provenance on snapshot triples,
// brand-new triples, and claims landing mid-rebuild — every /v1/observe
// acknowledgment, /v1/score result and /v1/triple status equals the
// reference's with ==, across three re-fusions.
func TestDeltaOverlayEqualsSeededScorer(t *testing.T) {
	st, err := store.Load(filepath.Join("testdata", "golden_store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, st, Config{
		Options:         corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1, Shards: 2, Parallelism: 2},
		PartialRebuild:  true,
		PenalizeSilence: true,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(20140622))
	ref := newSeededRef(t, srv, nil)
	// touched collects every triple the stream claimed, checked after
	// every round next to all snapshot triples and one nobody knows.
	touched := map[triple.Triple]bool{}

	// nextClaim draws one claim of the stream's five kinds against the
	// reference's current snapshot.
	nextClaim := func(round int) Observation {
		d := ref.sn.data
		id := triple.TripleID(rng.Intn(d.NumTriples()))
		for len(d.Providers(id)) == 0 {
			id = triple.TripleID(rng.Intn(d.NumTriples()))
		}
		tt := d.Triple(id)
		source := d.SourceName(triple.SourceID(rng.Intn(d.NumSources())))
		switch rng.Intn(5) {
		case 0: // duplicate of a snapshot claim
			provs := d.Providers(id)
			source = d.SourceName(provs[rng.Intn(len(provs))])
		case 1: // any known source on a snapshot triple: new provenance or a duplicate
		case 2: // never-seen source, on a snapshot triple or a new one
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
			got, want := scored.Results[i], ref.score(tt)
			if got.Triple != want.Triple || got.Probability != want.Probability || got.Basis != want.Basis ||
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
			ws, _ := ref.answer(tt)
			if gs.Triple != ws.Triple || gs.Probability != ws.Probability || gs.Live != ws.Live ||
				gs.BatchProbability != ws.BatchProbability || gs.Accepted != ws.Accepted {
				t.Errorf("%s: triple %v = %+v, reference %+v", when, tt, gs, ws)
			}
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
			if want := ref.observe(t, o); ack.Results[i] != want {
				t.Errorf("%s: observe %+v = %+v, reference %+v", when, o, ack.Results[i], want)
			}
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
				if want := ref.observe(t, o); err != nil || got != want {
					t.Errorf("round %d mid-%s: ingest %+v = %+v (%v), reference %+v", round, stage, o, got, err, want)
				}
			}
		}
		_, skipped, err := srv.rebuild(context.Background(), false, false)
		srv.testStageHook = nil
		if err != nil || skipped || len(suffix) != 8 {
			t.Fatalf("round %d: rebuild skipped=%v err=%v with %d mid-build claims, want a rebuild with 8", round, skipped, err, len(suffix))
		}
		ref = newSeededRef(t, srv, suffix)
		checkReads(fmt.Sprintf("round %d after the re-fusion", round))
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
