package serve

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestSoakIndexedServing soaks the indexed read path under full write
// pressure (run under -race in CI): concurrent bulk /v1/score readers and
// subject readers against concurrent /v1/observe writers, while the
// background refresher performs dirty-shard partial rebuilds every few
// milliseconds. The invariant under fire is snapshot consistency: every
// single response must carry an index version equal to its snapshot
// version — a reader must never observe a mixed-generation result — with
// every served probability in [0,1] and every subject listing pre-ranked.
func TestSoakIndexedServing(t *testing.T) {
	soak := 2 * time.Second
	if testing.Short() {
		soak = 300 * time.Millisecond
	}
	st := seedStoreWide(t, 48)
	cfg := corrConfig()
	cfg.Options.Shards = 3
	cfg.Options.Parallelism = 2
	cfg.PartialRebuild = true
	cfg.RefreshInterval = 25 * time.Millisecond
	srv := newServer(t, st, cfg)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	deadline := time.Now().Add(soak)
	var wg sync.WaitGroup

	// Writers: a stream of claims (some labeled) spread over the subject
	// space, keeping shards continuously dirty.
	const writers = 3
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sources := []string{"good1", "good2", "bad"}
			for i := 0; time.Now().Before(deadline); i++ {
				o := Observation{
					Source:    sources[rng.Intn(len(sources))],
					Subject:   fmt.Sprintf("soak-%d-%d", w, rng.Intn(64)),
					Predicate: "p", Object: "v",
				}
				if i%9 == 0 {
					o.Label = "true"
				}
				postJSON(t, ts.URL+"/v1/observe", o)
			}
		}(w)
	}

	// Bulk score readers: 64-triple batches mixing seeded and storm
	// subjects. Each response must be generation-consistent and in-bounds.
	const readers = 3
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			lastSeq := float64(0)
			for time.Now().Before(deadline) {
				var req ScoreRequest
				for len(req.Triples) < 64 {
					if rng.Intn(2) == 0 {
						req.Triples = append(req.Triples, tr(fmt.Sprintf("wu%d", rng.Intn(48)), "v"))
					} else {
						req.Triples = append(req.Triples,
							tr(fmt.Sprintf("soak-%d-%d", rng.Intn(writers), rng.Intn(64)), "v"))
					}
				}
				sc := postJSON(t, ts.URL+"/v1/score", req)
				if sc["indexVersion"].(float64) != sc["snapshotVersion"].(float64) {
					t.Errorf("reader %d: mixed generations: index %v vs snapshot %v",
						r, sc["indexVersion"], sc["snapshotVersion"])
					return
				}
				if seq := sc["snapshotSeq"].(float64); seq < lastSeq {
					t.Errorf("reader %d: snapshot seq went backwards: %v after %v", r, seq, lastSeq)
					return
				} else {
					lastSeq = seq
				}
				for _, raw := range sc["results"].([]any) {
					p := raw.(map[string]any)["probability"].(float64)
					if p < 0 || p > 1 {
						t.Errorf("reader %d: served probability %v outside [0,1]", r, p)
						return
					}
				}
			}
		}(r)
	}

	// Subject readers: pre-ranked listings must stay sorted and
	// generation-consistent while rebuilds swap underneath them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for time.Now().Before(deadline) {
			body, code := getJSON(t, fmt.Sprintf("%s/v1/subject/wu%d", ts.URL, rng.Intn(48)))
			if code != 200 {
				t.Errorf("subject reader: %d", code)
				return
			}
			if body["indexVersion"].(float64) != body["snapshotVersion"].(float64) {
				t.Errorf("subject reader: mixed generations: %v vs %v",
					body["indexVersion"], body["snapshotVersion"])
				return
			}
			last := 2.0
			for _, raw := range body["results"].([]any) {
				p := raw.(map[string]any)["probability"].(float64)
				if p > last {
					t.Errorf("subject listing not ranked: %v after %v", p, last)
					return
				}
				last = p
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// The refresher really ran (the writers kept the store moving), and the
	// final state is coherent: a quiescent re-fusion leaves the snapshot,
	// index and store at one version.
	postJSON(t, ts.URL+"/v1/refuse", struct{}{})
	sn := srv.snap.Load()
	if sn.seq < 2 {
		t.Fatalf("no background rebuild happened during the soak (seq %d)", sn.seq)
	}
	if sn.idx.Version() != sn.version || sn.version != srv.store.Version() {
		t.Fatalf("final state incoherent: index %d, snapshot %d, store %d",
			sn.idx.Version(), sn.version, srv.store.Version())
	}
	if sn.idx.Len() == 0 {
		t.Fatal("final index empty")
	}
}
