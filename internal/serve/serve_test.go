package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"corrfuse"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

func tr(sub, obj string) triple.Triple {
	return triple.Triple{Subject: sub, Predicate: "p", Object: obj}
}

// seedStore builds a training store: good1 and good2 are perfect copies
// (each provides all 8 true triples), bad provides one true and four false
// triples. u1 is an unlabeled triple claimed by both copiers, and "stale"
// is a pre-existing entry wrongly marked accepted with a high probability
// on the word of the bad source alone.
func seedStore(t *testing.T) *store.Store {
	t.Helper()
	return seedStoreData()
}

// seedStoreData is the testing.T-free builder behind seedStore, shared with
// the ingest benchmarks and the crash-recovery subprocess.
func seedStoreData() *store.Store {
	st := store.New()
	for i := 0; i < 8; i++ {
		srcs := []string{"good1", "good2"}
		if i == 0 {
			srcs = append(srcs, "bad")
		}
		st.Put(store.Entry{Triple: tr(fmt.Sprintf("t%d", i), "v"), Sources: srcs, Label: "true"})
	}
	for i := 0; i < 4; i++ {
		st.Put(store.Entry{Triple: tr(fmt.Sprintf("f%d", i), "v"), Sources: []string{"bad"}, Label: "false"})
	}
	// One false triple shared by the copiers gives their joint false
	// positive rate training support, so the correlation correction for
	// co-provided triples points downward (the classic copy discount).
	st.Put(store.Entry{Triple: tr("fshared", "v"), Sources: []string{"good1", "good2"}, Label: "false"})
	st.Put(store.Entry{Triple: tr("u1", "v"), Sources: []string{"good1", "good2"}})
	st.Put(store.Entry{Triple: tr("stale", "v"), Sources: []string{"bad"}, Probability: 0.99, Accepted: true})
	return st
}

func newServer(t *testing.T, st *store.Store, cfg Config) *Server {
	t.Helper()
	srv, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Start()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return srv
}

func corrConfig() Config {
	return Config{
		Options:         corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1},
		PenalizeSilence: true,
	}
}

func postJSON(t *testing.T, url string, body any) map[string]any {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %d: %s", url, resp.StatusCode, msg)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getJSON(t *testing.T, url string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

func tripleURL(base string, tt triple.Triple) string {
	return fmt.Sprintf("%s/v1/triple?subject=%s&predicate=%s&object=%s", base, tt.Subject, tt.Predicate, tt.Object)
}

// TestEndToEnd drives the full loop over HTTP: the initial fusion demotes a
// stale acceptance, ingested claims are instantly visible through the
// incremental model, and a forced re-fusion swaps in the batch
// (correlation-corrected) probability and persists it to the store.
func TestEndToEnd(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Initial fusion (snapshot 1) already demoted the stale entry.
	if e, ok := st.Get(tr("stale", "v")); !ok || e.Accepted || e.Probability >= 0.5 {
		t.Fatalf("stale entry not demoted by initial fusion: %+v", e)
	}
	body, code := getJSON(t, tripleURL(ts.URL, tr("stale", "v")))
	if code != http.StatusOK {
		t.Fatalf("GET triple: %d", code)
	}
	result := body["result"].(map[string]any)
	if result["accepted"].(bool) {
		t.Fatal("stale entry still accepted over HTTP")
	}

	// Health reports the first snapshot.
	health, _ := getJSON(t, ts.URL+"/healthz")
	if health["snapshotSeq"].(float64) != 1 {
		t.Fatalf("snapshotSeq = %v, want 1", health["snapshotSeq"])
	}

	// Ingest a fresh triple from the two copying sources: both claims are
	// scored instantly by the live model.
	obs := func(src string, tt triple.Triple) map[string]any {
		return postJSON(t, ts.URL+"/v1/observe", Observation{
			Source: src, Subject: tt.Subject, Predicate: tt.Predicate, Object: tt.Object,
		})
	}
	u2 := tr("u2", "v")
	first := obs("good1", u2)["results"].([]any)[0].(map[string]any)
	if !first["live"].(bool) {
		t.Fatal("observe result not served from the live model")
	}
	p1 := first["probability"].(float64)
	second := obs("good2", u2)["results"].([]any)[0].(map[string]any)
	p2 := second["probability"].(float64)
	if p2 <= p1 {
		t.Fatalf("second provider did not raise the live probability: %v then %v", p1, p2)
	}
	// The query path reports the same live value.
	body, _ = getJSON(t, tripleURL(ts.URL, u2))
	q := body["result"].(map[string]any)
	if !q["live"].(bool) || math.Abs(q["probability"].(float64)-p2) > 1e-12 {
		t.Fatalf("query after ingest = %+v, want live probability %v", q, p2)
	}

	// Batch re-fusion: the copying sources are perfectly correlated, so
	// the correlation-aware batch model must correct the independence
	// estimate downward — and the corrected value must reach the store.
	ref := postJSON(t, ts.URL+"/v1/refuse", struct{}{})
	if ref["skipped"].(bool) {
		t.Fatal("refuse skipped despite new observations")
	}
	if ref["snapshotSeq"].(float64) != 2 {
		t.Fatalf("snapshotSeq after refuse = %v, want 2", ref["snapshotSeq"])
	}
	body, _ = getJSON(t, tripleURL(ts.URL, u2))
	q = body["result"].(map[string]any)
	if q["live"].(bool) {
		t.Fatal("query after refuse still served from the live model")
	}
	batch := q["probability"].(float64)
	if batch >= p2 {
		t.Fatalf("batch correlation-corrected probability %v not below independence estimate %v", batch, p2)
	}
	if e, _ := st.Get(u2); math.Abs(e.Probability-batch) > 1e-12 {
		t.Fatalf("store not updated by re-fusion: %v != %v", e.Probability, batch)
	}

	// u1 (claimed by both copiers since the seed) matches u2 exactly
	// after the rebuild: same provider pattern, same probability.
	body, _ = getJSON(t, tripleURL(ts.URL, tr("u1", "v")))
	if p := body["result"].(map[string]any)["probability"].(float64); math.Abs(p-batch) > 1e-9 {
		t.Fatalf("u1 probability %v != u2 probability %v", p, batch)
	}
}

func TestSubjectSourceAndScore(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, code := getJSON(t, ts.URL+"/v1/subject/u1")
	if code != http.StatusOK || len(body["results"].([]any)) != 1 {
		t.Fatalf("subject query: code %d body %v", code, body)
	}
	body, _ = getJSON(t, ts.URL+"/v1/source/bad")
	if n := len(body["results"].([]any)); n != 6 {
		t.Fatalf("source bad has %d entries, want 6", n)
	}

	// Batch score: a snapshot triple, a live-only triple, an unknown one.
	postJSON(t, ts.URL+"/v1/observe", Observation{Source: "good1", Subject: "fresh", Predicate: "p", Object: "v"})
	sc := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Triples: []triple.Triple{
		tr("u1", "v"), tr("fresh", "v"), tr("nosuch", "v"),
	}})
	results := sc["results"].([]any)
	wantBasis := []string{"snapshot", "live", "unknown"}
	for i, want := range wantBasis {
		if got := results[i].(map[string]any)["basis"].(string); got != want {
			t.Errorf("score[%d] basis = %q, want %q", i, got, want)
		}
	}

	// Errors: malformed and empty requests, unknown triple.
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed score: %d", resp.StatusCode)
	}
	if _, code := getJSON(t, tripleURL(ts.URL, tr("nosuch", "v"))); code != http.StatusNotFound {
		t.Fatalf("unknown triple: %d", code)
	}
}

// TestRefreshSkipsUnchangedStore: the refresher must not rebuild when the
// store's data version has not moved — and fusion writebacks themselves
// must not count as data changes.
func TestRefreshSkipsUnchangedStore(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	if _, skipped, err := srv.rebuild(context.Background(), false, false); err != nil || !skipped {
		t.Fatalf("rebuild over unchanged store: skipped=%v err=%v", skipped, err)
	}
	srv.ingest(Observation{Source: "good1", Subject: "new", Predicate: "p", Object: "v"})
	sn, skipped, err := srv.rebuild(context.Background(), false, false)
	if err != nil || skipped {
		t.Fatalf("rebuild after ingest: skipped=%v err=%v", skipped, err)
	}
	if sn.seq != 2 {
		t.Fatalf("seq = %d, want 2", sn.seq)
	}
	if _, skipped, _ := srv.rebuild(context.Background(), false, false); !skipped {
		t.Fatal("rebuild immediately after rebuild not skipped")
	}
}

// TestUnknownSourcePending: claims from a source outside the quality model
// are stored and flagged, and join the models at the next re-fusion.
func TestUnknownSourcePending(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	res, _, _ := srv.ingest(Observation{Source: "newcomer", Subject: "x", Predicate: "p", Object: "v"})
	if !res.PendingSource {
		t.Fatal("claim from unknown source not flagged pending")
	}
	if e, ok := st.Get(tr("x", "v")); !ok || len(e.Sources) != 1 {
		t.Fatalf("claim from unknown source not stored: %+v", e)
	}
	if _, skipped, err := srv.rebuild(context.Background(), false, false); err != nil || skipped {
		t.Fatalf("rebuild: skipped=%v err=%v", skipped, err)
	}
	res, _, _ = srv.ingest(Observation{Source: "newcomer", Subject: "y", Predicate: "p", Object: "v"})
	if res.PendingSource || !res.Live {
		t.Fatalf("newcomer still pending after re-fusion: %+v", res)
	}
}

// TestIncrementalBatchParity: on an independence-model dataset (PrecRec),
// the live probabilities served between refreshes must equal what a batch
// fuser over the combined data would compute.
func TestIncrementalBatchParity(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, Config{
		Options:         corrfuse.Options{Method: corrfuse.PrecRec, Smoothing: 0.1},
		PenalizeSilence: true,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stream := []Observation{
		{Source: "good1", Subject: "n1", Predicate: "p", Object: "v"},
		{Source: "good2", Subject: "n1", Predicate: "p", Object: "v"},
		{Source: "bad", Subject: "n1", Predicate: "p", Object: "v"},
		{Source: "good2", Subject: "n2", Predicate: "p", Object: "v"},
		{Source: "bad", Subject: "n3", Predicate: "p", Object: "v"},
	}
	postJSON(t, ts.URL+"/v1/observe", map[string]any{"observations": stream})

	// Offline reference: batch PrecRec over the store plus the stream.
	d := st.Dataset()
	ref, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRec, Smoothing: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"n1", "n2", "n3"} {
		tt := tr(sub, "v")
		want, ok := ref.Probability(tt)
		if !ok {
			t.Fatalf("reference fuser does not know %v", tt)
		}
		body, _ := getJSON(t, tripleURL(ts.URL, tt))
		q := body["result"].(map[string]any)
		if !q["live"].(bool) {
			t.Fatalf("%v not served live", tt)
		}
		if got := q["probability"].(float64); math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: live %v != batch %v", tt, got, want)
		}
	}
}

// TestConcurrentIngestAndQuery hammers the service with parallel writers,
// readers and re-fusers; run under -race it checks the snapshot-swap and
// journal protocol.
func TestConcurrentIngestAndQuery(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, readers, rounds = 4, 4, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sources := []string{"good1", "good2", "bad", "latecomer"}
			for i := 0; i < rounds; i++ {
				postJSON(t, ts.URL+"/v1/observe", Observation{
					Source:  sources[rng.Intn(len(sources))],
					Subject: fmt.Sprintf("c%d", rng.Intn(10)), Predicate: "p", Object: "v",
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				getJSON(t, tripleURL(ts.URL, tr(fmt.Sprintf("c%d", i%10), "v")))
				postJSON(t, ts.URL+"/v1/score", ScoreRequest{Triples: []triple.Triple{tr("u1", "v"), tr(fmt.Sprintf("c%d", i%10), "v")}})
				if i%7 == 0 {
					resp, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			postJSON(t, ts.URL+"/v1/refuse", struct{}{})
		}
	}()
	wg.Wait()

	// The final state is consistent: one more forced re-fusion must leave
	// every concurrent claim scored in the store.
	postJSON(t, ts.URL+"/v1/refuse", struct{}{})
	for i := 0; i < 10; i++ {
		tt := tr(fmt.Sprintf("c%d", i), "v")
		if e, ok := st.Get(tt); ok && e.Probability == 0 {
			t.Errorf("%v stored but never scored", tt)
		}
	}
}

// seedStoreWide builds a training store spread over many subjects so a
// subject-hash partition gives every shard data: per subject block, the two
// copiers provide a true triple, bad provides a false one, and the copiers
// share one false triple per 8 blocks.
func seedStoreWide(t *testing.T, blocks int) *store.Store {
	t.Helper()
	st := store.New()
	for i := 0; i < blocks; i++ {
		st.Put(store.Entry{Triple: tr(fmt.Sprintf("wt%d", i), "v"), Sources: []string{"good1", "good2"}, Label: "true"})
		if i%2 == 0 {
			st.Put(store.Entry{Triple: tr(fmt.Sprintf("wf%d", i), "v"), Sources: []string{"bad"}, Label: "false"})
		}
		if i%8 == 0 {
			st.Put(store.Entry{Triple: tr(fmt.Sprintf("wfs%d", i), "v"), Sources: []string{"good1", "good2"}, Label: "false"})
		}
		st.Put(store.Entry{Triple: tr(fmt.Sprintf("wu%d", i), "v"), Sources: []string{"good1", "good2"}})
	}
	return st
}

// TestShardedStress hammers a service configured with three shards (which
// the one-model engine ignores) and two scoring workers with concurrent
// writers, readers and forced re-fusions (run under -race in CI). It checks
// the two invariants the rebuild path must keep under fire:
//
//   - no lost journal claims: after a final quiescent re-fusion, every
//     claim issued during the storm is in the store with its provenance and
//     is scored by the batch snapshot;
//   - monotonically increasing snapshot versions: every observer sees
//     /healthz snapshot sequence numbers non-decreasing, and each forced
//     re-fusion returns a strictly larger sequence than the one before it.
func TestShardedStress(t *testing.T) {
	st := seedStoreWide(t, 48)
	cfg := corrConfig()
	cfg.Options.Shards = 3
	cfg.Options.Parallelism = 2
	srv := newServer(t, st, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, readers, rounds = 4, 3, 25
	type claim struct {
		source string
		t      triple.Triple
	}
	claims := make([][]claim, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sources := []string{"good1", "good2", "bad"}
			for i := 0; i < rounds; i++ {
				c := claim{
					source: sources[rng.Intn(len(sources))],
					t:      tr(fmt.Sprintf("storm-%d-%d", w, rng.Intn(40)), "v"),
				}
				label := ""
				if i%5 == 0 {
					label = "true"
				}
				postJSON(t, ts.URL+"/v1/observe", Observation{
					Source: c.source, Subject: c.t.Subject, Predicate: c.t.Predicate, Object: c.t.Object,
					Label: label,
				})
				claims[w] = append(claims[w], c)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastSeq := float64(0)
			for i := 0; i < rounds; i++ {
				sc := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Triples: []triple.Triple{
					tr("wu1", "v"), tr(fmt.Sprintf("storm-%d-%d", i%4, i%40), "v"),
				}})
				if seq := sc["snapshotSeq"].(float64); seq < lastSeq {
					t.Errorf("reader %d: snapshot seq went backwards: %v after %v", r, seq, lastSeq)
					return
				} else {
					lastSeq = seq
				}
				health, _ := getJSON(t, ts.URL+"/healthz")
				if seq := health["snapshotSeq"].(float64); seq < lastSeq {
					t.Errorf("reader %d: healthz seq went backwards: %v after %v", r, seq, lastSeq)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastSeq := float64(0)
		for i := 0; i < 6; i++ {
			ref := postJSON(t, ts.URL+"/v1/refuse", struct{}{})
			seq := ref["snapshotSeq"].(float64)
			if seq <= lastSeq {
				t.Errorf("forced re-fusion %d did not advance the snapshot: %v after %v", i, seq, lastSeq)
				return
			}
			lastSeq = seq
		}
	}()
	wg.Wait()

	// Quiesce: one final forced re-fusion folds every journaled claim into
	// the batch model.
	postJSON(t, ts.URL+"/v1/refuse", struct{}{})
	sn := srv.snap.Load()
	if sn.version != srv.store.Version() {
		t.Errorf("final snapshot at store version %d, store is at %d", sn.version, srv.store.Version())
	}
	for w := range claims {
		for _, c := range claims[w] {
			e, ok := st.Get(c.t)
			if !ok {
				t.Fatalf("claim %v lost from the store", c.t)
			}
			if !containsStr(e.Sources, c.source) {
				t.Fatalf("claim (%s, %v) lost its provenance: %v", c.source, c.t, e.Sources)
			}
			id, ok := sn.data.TripleID(c.t)
			if !ok {
				t.Fatalf("claim %v missing from the final snapshot dataset", c.t)
			}
			if len(sn.data.Providers(id)) == 0 {
				t.Fatalf("claim %v has no providers in the final snapshot", c.t)
			}
		}
	}

	// The final snapshot is the model New trains over the captured data.
	want, err := corrfuse.New(sn.data, cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	wp, _, _ := want.FrozenScores()
	gp, _, _ := sn.fuser.FrozenScores()
	if !slices.Equal(wp, gp) {
		t.Error("final snapshot's scores differ from New over its capture")
	}
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestMetricsExposition: the endpoint emits the advertised families with
// coherent values.
func TestMetricsExposition(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/observe", Observation{Source: "good1", Subject: "m1", Predicate: "p", Object: "v"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`corrfused_requests_total{endpoint="observe"} 1`,
		"corrfused_observations_total 1",
		"corrfused_snapshot_seq 1",
		"corrfused_rebuilds_total 1",
		"corrfused_ingest_lag 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPersistence: re-fusion results survive a save/load round trip and a
// service restart resumes from them.
func TestPersistence(t *testing.T) {
	path := t.TempDir() + "/store.jsonl"
	st := seedStore(t)
	cfg := corrConfig()
	cfg.PersistPath = path
	srv, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.ingest(Observation{Source: "good1", Subject: "saved", Predicate: "p", Object: "v"})
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}

	reloaded, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reloaded.Get(tr("saved", "v")); !ok {
		t.Fatal("ingested claim not persisted")
	}
	if e, _ := reloaded.Get(tr("stale", "v")); e.Accepted {
		t.Fatal("demotion not persisted")
	}
	srv2 := newServer(t, reloaded, corrConfig())
	if seq, _, _ := srv2.Snapshot(); seq != 1 {
		t.Fatalf("restarted snapshot seq = %d", seq)
	}
}

// TestCloseWithoutStart: Close must not hang (nor skip the final persist)
// when the refresher was never started.
func TestCloseWithoutStart(t *testing.T) {
	path := t.TempDir() + "/store.jsonl"
	cfg := corrConfig()
	cfg.RefreshInterval = time.Minute
	cfg.PersistPath = path
	srv, err := New(seedStore(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.ingest(Observation{Source: "good1", Subject: "unsaved", Predicate: "p", Object: "v"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close without Start: %v", err)
	}
	reloaded, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reloaded.Get(tr("unsaved", "v")); !ok {
		t.Fatal("Close without Start did not persist")
	}
	srv.Start() // must be a no-op after Close
}

// TestObserveBatchValidation: a batch with any invalid observation is
// rejected wholesale — nothing from it may reach the store.
func TestObserveBatchValidation(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw, _ := json.Marshal(map[string]any{"observations": []map[string]string{
		{"source": "good1", "subject": "partial", "predicate": "p", "object": "v"},
		{"source": "good2", "subject": "partial", "predicate": "p", "object": "v", "label": "maybe"},
	}})
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch: %d, want 400", resp.StatusCode)
	}
	if _, ok := st.Get(tr("partial", "v")); ok {
		t.Fatal("rejected batch partially ingested")
	}
}

// TestSkippedRebuildTrimsJournal: duplicate-claim traffic must not grow the
// journal across version-gated rebuild skips.
func TestSkippedRebuildTrimsJournal(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	for i := 0; i < 5; i++ {
		srv.ingest(Observation{Source: "good1", Subject: "t0", Predicate: "p", Object: "v"})
	}
	srv.live.RLock()
	n := len(srv.live.journal)
	srv.live.RUnlock()
	if n != 5 {
		t.Fatalf("journal = %d entries, want 5", n)
	}
	if _, skipped, err := srv.rebuild(context.Background(), false, false); err != nil || !skipped {
		t.Fatalf("duplicate claims must not force a rebuild: skipped=%v err=%v", skipped, err)
	}
	srv.live.RLock()
	n = len(srv.live.journal)
	srv.live.RUnlock()
	if n != 0 {
		t.Fatalf("journal not trimmed on skipped rebuild: %d entries", n)
	}
}
