package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"corrfuse/internal/obs"
)

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	return string(raw)
}

// TestTraceEchoAndDebugTraces: a request carrying a well-formed
// X-Corrfused-Trace-Id gets the ID echoed on the response and its trace —
// stage spans included — is retrievable from /debug/traces; a malformed ID
// is replaced with a generated one.
func TestTraceEchoAndDebugTraces(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(Observation{Source: "good1", Subject: "trace-1", Predicate: "p", Object: "v"})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/observe", strings.NewReader(string(body)))
	req.Header.Set(obs.TraceHeader, "trace-echo-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "trace-echo-test-1" {
		t.Errorf("trace ID not echoed: got %q", got)
	}

	resp, err = http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recorded float64             `json:"recorded"`
		Traces   []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var found *obs.TraceSnapshot
	for i := range dump.Traces {
		if dump.Traces[i].ID == "trace-echo-test-1" {
			found = &dump.Traces[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("traced request not retrievable from /debug/traces: %+v", dump)
	}
	if found.Name != "observe" || found.Status != http.StatusOK {
		t.Errorf("trace = (%s, %d), want (observe, 200)", found.Name, found.Status)
	}
	spans := map[string]bool{}
	for _, sp := range found.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"decode", "ingest"} {
		if !spans[want] {
			t.Errorf("trace missing %q span; spans: %+v", want, found.Spans)
		}
	}

	// A malformed caller ID (embedded space) must not be honored.
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(obs.TraceHeader, "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got == "bad id with spaces" || got == "" {
		t.Errorf("malformed trace ID handling: echoed %q, want a generated replacement", got)
	}
}

// TestResponsesTotalCoversRouterErrors: responses the mux answers itself
// (404 unknown path, 405 wrong method) are counted in
// corrfused_responses_total and corrfused_bad_requests_total and land in the
// latency histogram under endpoint="other" — the paths the old per-handler
// counting missed entirely.
func TestResponsesTotalCoversRouterErrors(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest("PUT", ts.URL+"/healthz", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /healthz: %d, want 405", resp.StatusCode)
	}

	text := getMetrics(t, ts.URL)
	for _, want := range []string{
		`corrfused_responses_total{code="404"} 1`,
		`corrfused_responses_total{code="405"} 1`,
		"corrfused_bad_requests_total 2",
		`corrfused_request_seconds_count{endpoint="other"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsExpositionLint: the full /metrics document — WAL families
// included — passes the exposition linter: HELP/TYPE before
// samples, no duplicates, monotone cumulative histogram buckets with
// le="+Inf" equal to _count.
func TestMetricsExpositionLint(t *testing.T) {
	dir := t.TempDir()
	cfg := corrConfig()
	cfg.Options.Shards = 3
	cfg.WALDir = dir + "/wal"
	cfg.PersistPath = dir + "/store.jsonl"
	// The two fault counters: a crash leftover in the WAL directory at boot,
	// and a /debug/traces response whose write fails mid-body.
	if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.WALDir+"/wal-0000000001.jsonl.tmp", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, seedStore(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.TracesHandler().ServeHTTP(brokenWriter{httptest.NewRecorder()}, httptest.NewRequest("GET", "/debug/traces", nil))

	// Touch every kind of path so the document is as populated as it gets:
	// ingest (stage histograms + WAL commit wait), a read, a router 404 and
	// a refresh (rebuild stage histograms).
	postJSON(t, ts.URL+"/v1/observe", Observation{Source: "good1", Subject: "lint-1", Predicate: "p", Object: "v"})
	postJSON(t, ts.URL+"/v1/refuse", map[string]any{})
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	text := getMetrics(t, ts.URL)
	if errs := obs.LintExposition([]byte(text)); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
	for _, want := range []string{
		`corrfused_request_seconds_count{endpoint="observe"} 1`,
		`stage="wal_commit"`,
		`stage="train"`,
		"corrfused_wal_commit_wait_seconds_count 1",
		"corrfused_build_info{",
		"corrfused_wal_ignored_files 1\n",
		"corrfused_obs_encode_failures_total 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// brokenWriter is a ResponseWriter whose body writes fail, like a client
// that went away mid-response.
type brokenWriter struct{ *httptest.ResponseRecorder }

func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestSlowRequestLogged: a request slower than slowRequestThreshold is
// logged at warn, as one JSON record carrying its trace ID and endpoint.
func TestSlowRequestLogged(t *testing.T) {
	var lc logCollector
	cfg := corrConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&lc, nil))
	srv := newServer(t, seedStore(t), cfg)
	slow := srv.instrument(srv.route("score", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(slowRequestThreshold)
	})))
	req := httptest.NewRequest("POST", "/v1/score", nil)
	req.Header.Set(obs.TraceHeader, "slow-trace-1")
	slow.ServeHTTP(httptest.NewRecorder(), req)

	for _, line := range lc.lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if rec["msg"] != "slow request" {
			continue
		}
		if rec["level"] != "WARN" || rec["traceId"] != "slow-trace-1" || rec["endpoint"] != "score" {
			t.Errorf("slow-request record = %v", rec)
		}
		return
	}
	t.Fatalf("no slow-request record; lines: %v", lc.lines())
}

// TestConcurrentScrapeAndIngest hammers /metrics, /debug/traces, ingestion
// and forced rebuilds concurrently; every scraped document must still pass
// the exposition linter. Run with -race (CI does) this also proves the
// instrumentation hot path is data-race-free.
func TestConcurrentScrapeAndIngest(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body, _ := json.Marshal(Observation{
					Source: "good1", Subject: fmt.Sprintf("conc-%d-%d", w, i), Predicate: "p", Object: "v",
				})
				resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(string(body)))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, _, err := srv.rebuild(context.Background(), true, false); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if lintErrs := obs.LintExposition(raw); len(lintErrs) > 0 {
					errs <- fmt.Errorf("scrape %d: %v", i, lintErrs[0])
					return
				}
				resp, err = http.Get(ts.URL + "/debug/traces")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLiveTriplesCountsTheDelta: corrfused_live_triples is the overlay — the
// triples claimed since the live snapshot's capture — not the store: 0 on a
// quiet server, the distinct claimed triples between rebuilds, and after a
// rebuild exactly the distinct triples of the journal suffix that raced it.
func TestLiveTriplesCountsTheDelta(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wantLive := func(when string, n int) {
		t.Helper()
		if want := fmt.Sprintf("corrfused_live_triples %d\n", n); !strings.Contains(getMetrics(t, ts.URL), want) {
			t.Errorf("%s: metrics missing %q", when, strings.TrimSpace(want))
		}
	}
	wantLive("quiet boot over a populated store", 0)

	// Two claims on one new triple, one on a snapshot triple: two triples.
	srv.ingest(Observation{Source: "good1", Subject: "delta-1", Predicate: "p", Object: "v"})
	srv.ingest(Observation{Source: "good2", Subject: "delta-1", Predicate: "p", Object: "v"})
	srv.ingest(Observation{Source: "bad", Subject: "u1", Predicate: "p", Object: "v"})
	wantLive("after three claims on two triples", 2)

	// Claims landing after the capture are the journal suffix the swap
	// replays: two claims, one distinct triple.
	srv.testStageHook = func(stage string) {
		if stage == "capture" {
			srv.ingest(Observation{Source: "good1", Subject: "mid-build", Predicate: "p", Object: "v"})
			srv.ingest(Observation{Source: "bad", Subject: "mid-build", Predicate: "p", Object: "v"})
		}
	}
	if _, _, err := srv.rebuild(context.Background(), false, false); err != nil {
		t.Fatal(err)
	}
	srv.testStageHook = nil
	srv.live.RLock()
	suffix := map[string]bool{}
	for _, o := range srv.live.journal {
		suffix[o.t.Subject] = true
	}
	srv.live.RUnlock()
	if len(suffix) != 1 {
		t.Fatalf("journal suffix holds %d distinct triples, want the one mid-build triple", len(suffix))
	}
	wantLive("after a rebuild with a mid-build claim", len(suffix))

	if _, _, err := srv.rebuild(context.Background(), false, false); err != nil {
		t.Fatal(err)
	}
	wantLive("after a quiet rebuild", 0)
}
