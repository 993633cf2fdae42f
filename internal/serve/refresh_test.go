// Failure-injection tests for the refresh path: online-scorer failures must
// degrade the service to batch-only instead of aborting a rebuild whose
// results are already written back to the store, and the configuration
// knobs the one-model engine ignores must change no answer.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"corrfuse"
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

// logCollector captures the server's log lines for assertions: the
// Config.Logger it hands out is a text handler writing to it.
type logCollector struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (lc *logCollector) Write(p []byte) (int, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.buf.Write(p)
}

// logger is the Config.Logger that feeds the collector.
func (lc *logCollector) logger() *slog.Logger {
	return slog.New(slog.NewTextHandler(lc, nil))
}

// lines returns the captured lines in order.
func (lc *logCollector) lines() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Split(strings.TrimSpace(lc.buf.String()), "\n")
}

// count returns how many captured lines contain sub.
func (lc *logCollector) count(sub string) int {
	n := 0
	for _, l := range lc.lines() {
		if strings.Contains(l, sub) {
			n++
		}
	}
	return n
}

// rebuildLine matches the per-rebuild line's unrounded duration attribute.
var rebuildLine = regexp.MustCompile(`msg="serve: snapshot built" .* duration=(\S+)`)

// checkRebuildsTimed asserts that every rebuild line carries a non-zero
// duration (they used to round sub-millisecond rebuilds to "0s").
func (lc *logCollector) checkRebuildsTimed(t *testing.T) {
	t.Helper()
	seen := 0
	for _, l := range lc.lines() {
		m := rebuildLine.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		seen++
		if d, err := time.ParseDuration(m[1]); err != nil || d <= 0 {
			t.Errorf("rebuild line has duration %q, want > 0: %s", m[1], l)
		}
	}
	if seen == 0 {
		t.Errorf("no rebuild line logged; lines: %v", lc.lines())
	}
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
	if lc.count("online scorer unavailable") == 0 {
		t.Errorf("degradation not logged; lines: %v", lc.lines())
	}
	lc.checkRebuildsTimed(t)
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
	if logged := lc.count("live scorer failed"); logged != 1 {
		t.Errorf("failure logged %d times, want once; lines: %v", logged, lc.lines())
	}
	lc.checkRebuildsTimed(t)
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
	if lc.count("live scorer failed") == 0 {
		t.Errorf("replay failure not logged; lines: %v", lc.lines())
	}
	lc.checkRebuildsTimed(t)
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

// TestPartialRebuildEndToEnd: Config.PartialRebuild and Options.Shards are
// inert. A refresh after a claim confined to one subject retrains the whole
// model — on a server configured for three shards and partial rebuilds as on
// a plain one — and both serve identical probabilities; /metrics and
// /v1/refuse carry no shard families or fields.
func TestPartialRebuildEndToEnd(t *testing.T) {
	mkServer := func(partial bool, shards int) *Server {
		cfg := corrConfig()
		cfg.Options.Shards = shards
		cfg.Options.Parallelism = 2
		cfg.PartialRebuild = partial
		return newServer(t, seedStoreWide(t, 48), cfg)
	}
	partial := mkServer(true, 3)
	full := mkServer(false, 0)

	obs := Observation{Source: "good1", Subject: "fresh-subject", Predicate: "p", Object: "v"}
	for _, srv := range []*Server{partial, full} {
		srv.ingest(obs)
		if _, skipped, err := srv.rebuild(context.Background(), false); err != nil || skipped {
			t.Fatalf("rebuild: err=%v skipped=%v", err, skipped)
		}
	}
	for _, sub := range []string{"wt0", "wt1", "wt7", "wu3", "fresh-subject"} {
		tt := tr(sub, "v")
		pp, _, okP := partial.liveProbability(partial.snap.Load(), tt)
		fp, _, okF := full.liveProbability(full.snap.Load(), tt)
		if !okP || !okF {
			t.Fatalf("%s: unknown to a snapshot (partial %v, full %v)", sub, okP, okF)
		}
		if pp != fp {
			t.Errorf("%s: partial %v != full %v", sub, pp, fp)
		}
	}

	if text := metricsText(t, partial); strings.Contains(text, "corrfused_shard") || strings.Contains(text, "corrfused_partial_rebuilds_total") {
		t.Errorf("shard metric families still exposed:\n%s", text)
	}
	ts := httptest.NewServer(partial.Handler())
	defer ts.Close()
	out := postJSON(t, ts.URL+"/v1/refuse", map[string]any{})
	for _, key := range []string{"shards", "rebuiltShards", "reusedShards"} {
		if _, ok := out[key]; ok {
			t.Errorf("refuse still reports %q: %v", key, out)
		}
	}
}

// TestPartialRebuildNewSourceFallsBackToFull: a claim from an unknown source
// joins the model at the next refresh, partial rebuilds configured or not.
func TestPartialRebuildNewSourceFallsBackToFull(t *testing.T) {
	cfg := corrConfig()
	cfg.Options.Shards = 3
	cfg.Options.Parallelism = 2
	cfg.PartialRebuild = true
	srv := newServer(t, seedStoreWide(t, 48), cfg)

	srv.ingest(Observation{Source: "newcomer", Subject: "wt0", Predicate: "p", Object: "v"})
	sn, skipped, err := srv.rebuild(context.Background(), false)
	if err != nil || skipped {
		t.Fatalf("rebuild: err=%v skipped=%v", err, skipped)
	}
	if _, ok := sn.data.SourceID("newcomer"); !ok {
		t.Fatal("new source missing from the rebuilt model")
	}
	if _, ok := sn.fuser.Dataset().SourceID("newcomer"); !ok {
		t.Fatal("new source missing from the rebuilt model's dataset")
	}
}

// TestShardsZeroAndOneAnswerIdentically: Options.Shards is ignored, so
// servers over the same store with Shards 0, 1 and 8 answer /v1/score,
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
	zero := answers(0)
	for _, shards := range []int{1, 8} {
		other := answers(shards)
		for i := range zero {
			if zero[i] != other[i] {
				t.Errorf("Shards 0 and %d disagree:\n0: %s\n%d: %s", shards, zero[i], shards, other[i])
			}
		}
	}
	if strings.Contains(zero[0], "Shards") || strings.Contains(zero[0], `"shards"`) {
		t.Errorf("refuse still reports shards: %s", zero[0])
	}
}
