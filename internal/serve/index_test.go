package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"corrfuse/internal/triple"
)

// TestIndexMatchesModel: through the real rebuild path (initial fusion,
// ingest, re-fusion), the snapshot's read index must agree with the batch
// model on every stored triple — the property the O(1) read path stands on.
func TestIndexMatchesModel(t *testing.T) {
	for _, shards := range []int{0, 3} {
		name := "monolithic"
		if shards > 0 {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			st := seedStoreWide(t, 24)
			cfg := corrConfig()
			cfg.Options.Shards = shards
			srv := newServer(t, st, cfg)
			srv.ingest(Observation{Source: "good1", Subject: "wnew", Predicate: "p", Object: "v"})
			if _, skipped, err := srv.rebuild(context.Background(), false, false); err != nil || skipped {
				t.Fatalf("rebuild: skipped=%v err=%v", skipped, err)
			}
			sn := srv.snap.Load()
			if sn.idx.Version() != sn.version {
				t.Fatalf("index version %d != snapshot version %d", sn.idx.Version(), sn.version)
			}
			checked := 0
			for i := 0; i < sn.data.NumTriples(); i++ {
				id := triple.TripleID(i)
				if len(sn.data.Providers(id)) == 0 {
					continue
				}
				p, accepted, ok := sn.idx.Lookup(id)
				if !ok {
					t.Fatalf("index misses provided triple %v", sn.data.Triple(id))
				}
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("index serves %v outside [0,1]", p)
				}
				if want := sn.fuser.ProbabilityByID(id); math.Abs(p-want) > 1e-12 {
					t.Fatalf("index %v != model %v for %v", p, want, sn.data.Triple(id))
				}
				if dec, known := sn.fuser.Decide(sn.data.Triple(id)); !known || dec != accepted {
					t.Fatalf("index decision %v != model %v for %v", accepted, dec, sn.data.Triple(id))
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no provided triples checked")
			}
			if sn.idx.Len() != checked {
				t.Fatalf("index holds %d results, dataset has %d provided triples", sn.idx.Len(), checked)
			}
		})
	}
}

// TestSubjectServedFromIndex: /v1/subject answers come pre-ranked from the
// snapshot index with matching version stamps, and reflect a re-fusion
// (not the pre-rebuild store state).
func TestSubjectServedFromIndex(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, code := getJSON(t, ts.URL+"/v1/subject/u1")
	if code != http.StatusOK {
		t.Fatalf("subject: %d", code)
	}
	if body["indexVersion"].(float64) != body["snapshotVersion"].(float64) {
		t.Fatalf("index/snapshot version mismatch: %v vs %v", body["indexVersion"], body["snapshotVersion"])
	}
	results := body["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("subject u1: %d results, want 1", len(results))
	}
	first := results[0].(map[string]any)
	if first["probability"].(float64) <= 0 {
		t.Fatalf("subject result not scored: %v", first)
	}

	// An unknown subject yields an empty (not absent) result list.
	body, code = getJSON(t, ts.URL+"/v1/subject/nosuchsubject")
	if code != http.StatusOK || len(body["results"].([]any)) != 0 {
		t.Fatalf("unknown subject: code %d results %v", code, body["results"])
	}

	// Ranked: seed a subject with a high- and a low-probability triple.
	postJSON(t, ts.URL+"/v1/observe", map[string]any{"observations": []Observation{
		{Source: "good1", Subject: "ranked", Predicate: "p", Object: "good"},
		{Source: "good2", Subject: "ranked", Predicate: "p", Object: "good"},
		{Source: "bad", Subject: "ranked", Predicate: "p", Object: "poor"},
	}})
	postJSON(t, ts.URL+"/v1/refuse", struct{}{})
	body, _ = getJSON(t, ts.URL+"/v1/subject/ranked")
	results = body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("subject ranked: %d results, want 2", len(results))
	}
	p0 := results[0].(map[string]any)["probability"].(float64)
	p1 := results[1].(map[string]any)["probability"].(float64)
	if p0 < p1 {
		t.Fatalf("subject results not ranked: %v before %v", p0, p1)
	}
}

// TestScoreRequestLimits: oversized /v1/score requests are rejected with
// 413 and a structured error before any scoring work — both the triple
// count cap and the body byte cap.
func TestScoreRequestLimits(t *testing.T) {
	st := seedStore(t)
	cfg := corrConfig()
	cfg.MaxScoreTriples = 4
	cfg.MaxBodyBytes = 1 << 12
	srv := newServer(t, st, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	// Five triples against a cap of four: 413 naming the triple limit.
	var req ScoreRequest
	for i := 0; i < 5; i++ {
		req.Triples = append(req.Triples, tr("t0", "v"))
	}
	raw, _ := json.Marshal(req)
	code, out := post(raw)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-count request: %d, want 413", code)
	}
	if out["error"] == nil || out["maxTriples"].(float64) != 4 {
		t.Fatalf("over-count error not structured: %v", out)
	}

	// A body past the byte cap: 413 naming the byte limit, even though the
	// triple count would have passed.
	big, _ := json.Marshal(ScoreRequest{Triples: []triple.Triple{
		{Subject: strings.Repeat("x", 1<<13), Predicate: "p", Object: "v"},
	}})
	code, out = post(big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", code)
	}
	if out["error"] == nil || out["maxBytes"].(float64) != float64(1<<12) {
		t.Fatalf("oversized-body error not structured: %v", out)
	}

	// The byte cap guards the write path too: an oversized /v1/observe
	// body is rejected before any decoding work.
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized observe body: %d, want 413", resp.StatusCode)
	}

	// At the cap, the request still succeeds.
	req.Triples = req.Triples[:4]
	raw, _ = json.Marshal(req)
	if code, _ = post(raw); code != http.StatusOK {
		t.Fatalf("at-cap request: %d, want 200", code)
	}

	// The defaults apply when the config leaves the caps zero.
	srv2 := newServer(t, seedStore(t), corrConfig())
	if srv2.maxScoreTriples != DefaultMaxScoreTriples || srv2.maxBodyBytes != DefaultMaxBodyBytes {
		t.Fatalf("default caps = %d/%d", srv2.maxScoreTriples, srv2.maxBodyBytes)
	}
}

// TestScoreServesAcceptance: snapshot-basis score results carry the frozen
// acceptance decision.
func TestScoreServesAcceptance(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Triples: []triple.Triple{
		tr("t0", "v"), tr("f0", "v"),
	}})
	results := sc["results"].([]any)
	acceptedTrue := results[0].(map[string]any)
	if acceptedTrue["basis"].(string) != "snapshot" || acceptedTrue["accepted"] != true {
		t.Fatalf("true triple not served accepted from the snapshot: %v", acceptedTrue)
	}
	rejected := results[1].(map[string]any)
	if rejected["basis"].(string) != "snapshot" || rejected["accepted"] != false {
		t.Fatalf("rejected snapshot triple must carry accepted=false: %v", rejected)
	}
	if sc["indexVersion"].(float64) != sc["snapshotVersion"].(float64) {
		t.Fatalf("score response mixed generations: %v", sc)
	}
}
