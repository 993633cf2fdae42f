// Failure-injection tests for the refresh path: online-scorer failures must
// degrade the service to batch-only instead of aborting a rebuild whose
// results are already written back to the store, and the dirty-shard partial
// path must reuse clean shards while producing the same probabilities as a
// full rebuild.
package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"corrfuse"
	"corrfuse/internal/obs"
	"corrfuse/internal/shard"
	"corrfuse/internal/triple"
)

// failingScorer wraps a real online scorer and fails Observe — always when
// failAll is set, or only for one specific triple otherwise.
type failingScorer struct {
	inner   corrfuse.OnlineScorer
	failAll bool
	failOn  triple.Triple
}

func (f *failingScorer) Observe(s corrfuse.SourceID, t triple.Triple) (float64, error) {
	if f.failAll || t == f.failOn {
		return 0, fmt.Errorf("injected Observe failure for %v", t)
	}
	return f.inner.Observe(s, t)
}

func (f *failingScorer) Probability(t triple.Triple) (float64, bool) { return f.inner.Probability(t) }
func (f *failingScorer) Providers(t triple.Triple) int               { return f.inner.Providers(t) }
func (f *failingScorer) Len() int                                    { return f.inner.Len() }

// logCollector captures the server's log lines for assertions.
type logCollector struct {
	mu    sync.Mutex
	lines []string
}

// logger is the Config.Logger that feeds the collector.
func (lc *logCollector) logger() *obs.Logger {
	return obs.NewLoggerFunc(func(line string) {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		lc.lines = append(lc.lines, line)
	}, obs.LevelInfo, "text")
}

func (lc *logCollector) contains(sub string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

func metricsText(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// liveProbability is freshestLocked as the tests ask it: the freshest
// probability for t, whether the overlay gave it, and whether either side of
// the boundary knows t.
func (s *Server) liveProbability(sn *snapshot, t triple.Triple) (p float64, live, ok bool) {
	s.live.RLock()
	defer s.live.RUnlock()
	p, _, _, basis := s.freshestLocked(sn, t)
	return p, basis == basisLive, basis != basisUnknown
}

func liveInc(srv *Server) corrfuse.OnlineScorer {
	srv.live.RLock()
	defer srv.live.RUnlock()
	return srv.live.inc
}

// TestOnlineUnavailableIsSignalled: an unsupervised method has no online
// scorer; the service must come up batch-only, log the cause, and raise the
// online_disabled gauge so operators can tell this state from a healthy
// supervised deployment.
func TestOnlineUnavailableIsSignalled(t *testing.T) {
	var lc logCollector
	cfg := Config{
		Options: corrfuse.Options{Method: corrfuse.UnionK},
		Logger:  lc.logger(),
	}
	srv := newServer(t, seedStore(t), cfg)
	if liveInc(srv) != nil {
		t.Fatal("unsupervised method produced an online scorer")
	}
	if !lc.contains("online scorer unavailable") {
		t.Errorf("degradation not logged; lines: %v", lc.lines)
	}
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_online_disabled 1") {
		t.Error("online_disabled gauge not raised")
	}
	// Rebuilds keep working batch-only, and ingests fall back to stored
	// batch probabilities.
	srv.ingest(Observation{Source: "good1", Subject: "t0", Predicate: "p", Object: "v"})
	sn, _, err := srv.rebuild(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if sn.seq != 2 {
		t.Fatalf("seq = %d, want 2", sn.seq)
	}
}

// TestIngestFailureDegradesToBatch: a scorer that fails on an ingested claim
// is dropped — one log line, online_disabled 1, the response and every read
// fall back to the snapshot answer — and the next /v1/refuse restores live
// scoring.
func TestIngestFailureDegradesToBatch(t *testing.T) {
	var lc logCollector
	cfg := corrConfig()
	cfg.Logger = lc.logger()
	srv := newServer(t, seedStore(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_online_disabled 0") {
		t.Error("online_disabled gauge raised on a healthy deployment")
	}

	// u1 is a snapshot triple both copiers provide; "bad" claiming it too
	// is new provenance, so a healthy scorer would answer live.
	poison := tr("u1", "v")
	srv.testOnlineHook = func(inc corrfuse.OnlineScorer, err error) (corrfuse.OnlineScorer, error) {
		if err != nil {
			return inc, err
		}
		return &failingScorer{inner: inc, failOn: poison}, nil
	}
	postJSON(t, ts.URL+"/v1/refuse", struct{}{})
	body, _ := getJSON(t, tripleURL(ts.URL, poison))
	batch := body["result"].(map[string]any)["batchProbability"].(float64)
	if batch <= 0 {
		t.Fatalf("no batch answer for %v: %v", poison, body)
	}

	claim := Observation{Source: "bad", Subject: poison.Subject, Predicate: poison.Predicate, Object: poison.Object}
	res := postJSON(t, ts.URL+"/v1/observe", claim)["results"].([]any)[0].(map[string]any)
	if res["live"].(bool) || res["probability"].(float64) != batch {
		t.Errorf("observe on a failing scorer = %v, want the snapshot answer %v", res, batch)
	}
	if liveInc(srv) != nil {
		t.Fatal("failed scorer left installed")
	}
	// A second claim finds no scorer to fail: the cause is logged once.
	postJSON(t, ts.URL+"/v1/observe", claim)
	lc.mu.Lock()
	logged := 0
	for _, l := range lc.lines {
		if strings.Contains(l, "live scorer failed") {
			logged++
		}
	}
	lc.mu.Unlock()
	if logged != 1 {
		t.Errorf("failure logged %d times, want once; lines: %v", logged, lc.lines)
	}
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_online_disabled 1") {
		t.Error("online_disabled gauge not raised after the ingest failure")
	}
	sc := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Triples: []triple.Triple{poison}})
	if got := sc["results"].([]any)[0].(map[string]any); got["basis"] != "snapshot" || got["probability"].(float64) != batch {
		t.Errorf("score while degraded = %v, want snapshot %v", got, batch)
	}

	// The claim is in the store: the next re-fusion folds it in, derives a
	// healthy scorer and lowers the gauge.
	srv.testOnlineHook = nil
	if ref := postJSON(t, ts.URL+"/v1/refuse", struct{}{}); ref["skipped"].(bool) {
		t.Fatal("refuse skipped despite the stored claim")
	}
	if liveInc(srv) == nil {
		t.Fatal("healthy rebuild did not restore the online scorer")
	}
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_online_disabled 0") {
		t.Error("online_disabled gauge not lowered after recovery")
	}
	res = postJSON(t, ts.URL+"/v1/observe", Observation{Source: "good1", Subject: "after", Predicate: "p", Object: "v"})["results"].([]any)[0].(map[string]any)
	if !res["live"].(bool) {
		t.Errorf("observe after recovery not served live: %v", res)
	}
}

// TestReplayFailureCompletesSwap: a claim ingested during the model build is
// replayed onto the new scorer at swap time; if that replay fails, the swap
// must still complete (store-backed endpoints already serve the new model)
// with the journal suffix preserved for the next rebuild.
func TestReplayFailureCompletesSwap(t *testing.T) {
	var lc logCollector
	cfg := corrConfig()
	cfg.Logger = lc.logger()
	srv := newServer(t, seedStore(t), cfg)

	poison := tr("mid-build", "v")
	srv.testOnlineHook = func(inc corrfuse.OnlineScorer, err error) (corrfuse.OnlineScorer, error) {
		if err != nil {
			return inc, err
		}
		// The hook runs after the store capture, exactly where concurrent
		// ingests land in the journal suffix that swap-time replay covers.
		srv.ingest(Observation{Source: "good1", Subject: poison.Subject, Predicate: poison.Predicate, Object: poison.Object})
		return &failingScorer{inner: inc, failOn: poison}, nil
	}
	srv.ingest(Observation{Source: "good2", Subject: "pre-build", Predicate: "p", Object: "v"})
	sn, skipped, err := srv.rebuild(context.Background(), false)
	if err != nil {
		t.Fatalf("replay failure aborted the rebuild: %v", err)
	}
	if skipped || sn.seq != 2 {
		t.Fatalf("snapshot not swapped: skipped=%v seq=%d", skipped, sn.seq)
	}
	if liveInc(srv) != nil {
		t.Fatal("scorer that failed replay left installed")
	}
	if !lc.contains("live scorer failed") {
		t.Errorf("replay failure not logged; lines: %v", lc.lines)
	}
	// Journal truncation stays correct: only the suffix (the mid-build
	// claim) survives; the pre-build claim was captured and dropped.
	srv.live.RLock()
	var suffix []observation
	suffix = append(suffix, srv.live.journal...)
	srv.live.RUnlock()
	if len(suffix) != 1 || suffix[0].t != poison {
		t.Fatalf("journal suffix = %v, want the one mid-build claim", suffix)
	}
	// The mid-build claim's provenance is in the store (ingest writes the
	// store first), so the next rebuild folds it in and recovers.
	srv.testOnlineHook = nil
	if _, _, err := srv.rebuild(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	if liveInc(srv) == nil {
		t.Fatal("recovery rebuild did not restore the online scorer")
	}
	if p, _, ok := srv.liveProbability(srv.snap.Load(), poison); !ok || p <= 0 {
		t.Errorf("mid-build claim lost: p=%v ok=%v", p, ok)
	}
}

// TestPartialRebuildEndToEnd: with PartialRebuild enabled, a background
// refresh after claims confined to one shard retrains exactly that shard,
// reports the counts in /metrics and /v1/refuse, and serves the same
// probabilities as a full-rebuild twin.
func TestPartialRebuildEndToEnd(t *testing.T) {
	const shards = 3
	mkServer := func(partial bool) *Server {
		cfg := corrConfig()
		cfg.Options.Shards = shards
		cfg.Options.Parallelism = 2
		cfg.PartialRebuild = partial
		return newServer(t, seedStoreWide(t, 48), cfg)
	}
	partial := mkServer(true)
	full := mkServer(false)

	// Claims on one new subject dirty exactly one shard.
	obs := Observation{Source: "good1", Subject: "fresh-subject", Predicate: "p", Object: "v"}
	home := shard.Of(obs.Subject, shards)
	partial.ingest(obs)
	full.ingest(obs)

	sn, skipped, err := partial.rebuild(context.Background(), false)
	if err != nil || skipped {
		t.Fatalf("partial rebuild: err=%v skipped=%v", err, skipped)
	}
	rebuilt, reused := sn.rebuildCounts()
	if rebuilt != 1 || reused != shards-1 {
		t.Fatalf("rebuilt %d / reused %d shards, want 1 / %d", rebuilt, reused, shards-1)
	}
	for _, st := range sn.shardStats {
		if (st.Shard == home) == st.Reused {
			t.Errorf("shard %d reused=%v, dirty shard is %d", st.Shard, st.Reused, home)
		}
	}
	if _, _, err := full.rebuild(context.Background(), false); err != nil {
		t.Fatal(err)
	}

	// The partial snapshot's probabilities match the full rebuild's, on
	// clean-shard and dirty-shard triples alike.
	for _, sub := range []string{"wt0", "wt1", "wt7", "wu3", "fresh-subject"} {
		tt := tr(sub, "v")
		pp, _, okP := partial.liveProbability(partial.snap.Load(), tt)
		fp, _, okF := full.liveProbability(full.snap.Load(), tt)
		if !okP || !okF {
			t.Fatalf("%s: unknown to a snapshot (partial %v, full %v)", sub, okP, okF)
		}
		if math.Abs(pp-fp) > 1e-9 {
			t.Errorf("%s: partial %.12f != full %.12f", sub, pp, fp)
		}
	}

	if text := metricsText(t, partial); !strings.Contains(text, "corrfused_partial_rebuilds_total 1") ||
		!strings.Contains(text, "corrfused_shards_rebuilt 1") ||
		!strings.Contains(text, fmt.Sprintf("corrfused_shards_reused %d", shards-1)) ||
		!strings.Contains(text, fmt.Sprintf("corrfused_shard_reused{shard=\"%d\"} 0", home)) {
		t.Errorf("partial-rebuild metrics missing:\n%s", text)
	}

	// /v1/refuse reports the counts of the rebuild it performed. The
	// store is unchanged now, but refuse forces a rebuild: zero dirty
	// shards, everything reused.
	ts := httptest.NewServer(partial.Handler())
	defer ts.Close()
	out := postJSON(t, ts.URL+"/v1/refuse", map[string]any{})
	if got, ok := out["reusedShards"].(float64); !ok || int(got) != shards {
		t.Errorf("refuse reusedShards = %v, want %d", out["reusedShards"], shards)
	}
	if got, ok := out["rebuiltShards"].(float64); !ok || int(got) != 0 {
		t.Errorf("refuse rebuiltShards = %v, want 0", out["rebuiltShards"])
	}
}

// TestPartialRebuildNewSourceFallsBackToFull: a claim from an unknown source
// changes the source table, which partial adoption must refuse — the refresh
// degrades to retraining every shard, and the new source joins the model.
func TestPartialRebuildNewSourceFallsBackToFull(t *testing.T) {
	const shards = 3
	cfg := corrConfig()
	cfg.Options.Shards = shards
	cfg.Options.Parallelism = 2
	cfg.PartialRebuild = true
	srv := newServer(t, seedStoreWide(t, 48), cfg)

	srv.ingest(Observation{Source: "newcomer", Subject: "wt0", Predicate: "p", Object: "v"})
	sn, skipped, err := srv.rebuild(context.Background(), false)
	if err != nil || skipped {
		t.Fatalf("rebuild: err=%v skipped=%v", err, skipped)
	}
	rebuilt, reused := sn.rebuildCounts()
	if reused != 0 || rebuilt != shards {
		t.Fatalf("rebuilt %d / reused %d after a source-table change, want %d / 0", rebuilt, reused, shards)
	}
	if _, ok := sn.data.SourceID("newcomer"); !ok {
		t.Fatal("new source missing from the rebuilt model")
	}
	// Nothing was adopted, so this was a full rebuild and is counted as one.
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_partial_rebuilds_total 0") {
		t.Error("a partial rebuild that adopted no shard was counted as partial")
	}
}

// TestOneShardRebuildIsPartialOnlyWhenAdopted: with one shard a dirty store
// is a full rebuild — the partial-rebuild counter counts adoptions, not the
// path taken, so it stays 0 — while a forced re-fusion of the unchanged store
// adopts the whole model and is counted.
func TestOneShardRebuildIsPartialOnlyWhenAdopted(t *testing.T) {
	cfg := corrConfig()
	cfg.PartialRebuild = true
	srv := newServer(t, seedStoreWide(t, 48), cfg)

	srv.ingest(Observation{Source: "good1", Subject: "fresh-subject", Predicate: "p", Object: "v"})
	sn, skipped, err := srv.rebuild(context.Background(), false)
	if err != nil || skipped {
		t.Fatalf("rebuild: err=%v skipped=%v", err, skipped)
	}
	if rebuilt, reused := sn.rebuildCounts(); rebuilt != 1 || reused != 0 {
		t.Fatalf("dirty store: rebuilt %d / reused %d shards, want 1 / 0", rebuilt, reused)
	}
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_partial_rebuilds_total 0") {
		t.Error("a one-shard rebuild of a dirty store was counted as partial")
	}

	sn, _, err = srv.rebuild(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt, reused := sn.rebuildCounts(); rebuilt != 0 || reused != 1 {
		t.Fatalf("unchanged store: rebuilt %d / reused %d shards, want 0 / 1", rebuilt, reused)
	}
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_partial_rebuilds_total 1") {
		t.Error("adopting the one shard was not counted as partial")
	}
}

// TestShardsZeroAndOneAnswerIdentically: Options.Shards 0 and 1 are the same
// one-shard engine, so two servers over the same store answer /v1/score,
// /v1/subject and /v1/refuse byte for byte (wall-clock durationMs aside).
func TestShardsZeroAndOneAnswerIdentically(t *testing.T) {
	durationMs := regexp.MustCompile(`"durationMs":\d+`)
	answers := func(shards int) []string {
		cfg := corrConfig()
		cfg.Options.Shards = shards
		cfg.PartialRebuild = true
		srv := newServer(t, seedStoreWide(t, 48), cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		srv.ingest(Observation{Source: "good1", Subject: "wt3", Predicate: "p", Object: "other"})
		do := func(method, path, body string) string {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d, err %v: %s", method, path, resp.StatusCode, err, raw)
			}
			return path + " " + durationMs.ReplaceAllString(string(raw), `"durationMs":0`)
		}
		return []string{
			do("POST", "/v1/refuse", ""),
			do("POST", "/v1/score", `{"triples":[{"subject":"wt3","predicate":"p","object":"v"},{"subject":"wt3","predicate":"p","object":"other"},{"subject":"nobody","predicate":"p","object":"v"}]}`),
			do("GET", "/v1/subject/wt3", ""),
		}
	}
	zero, one := answers(0), answers(1)
	for i := range zero {
		if zero[i] != one[i] {
			t.Errorf("Shards 0 and 1 disagree:\n0: %s\n1: %s", zero[i], one[i])
		}
	}
	if !strings.Contains(zero[0], `"shards":1`) || !strings.Contains(zero[0], `"rebuiltShards":1`) {
		t.Errorf("refuse does not report the one shard: %s", zero[0])
	}
}
