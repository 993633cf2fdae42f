package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// doJSON issues a request and decodes the JSON body, returning it with the
// status code and response headers.
func doJSON(t *testing.T, method, url string, body any) (map[string]any, int, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode, resp.Header
}

// stageGate wires a testStageHook that blocks at the end of the named
// rebuild stage until released. entered is signalled (capacity-buffered,
// non-blocking) each time a rebuild reaches the gate.
type stageGate struct {
	stage   string
	release chan struct{}
	entered chan struct{}
}

func newStageGate(t *testing.T, srv *Server, stage string) *stageGate {
	t.Helper()
	g := &stageGate{
		stage:   stage,
		release: make(chan struct{}),
		entered: make(chan struct{}, 16),
	}
	srv.testStageHook = func(name string) {
		if name == g.stage {
			select {
			case g.entered <- struct{}{}:
			default:
			}
			<-g.release
		}
	}
	// Registered after newServer's cleanup, so it runs BEFORE the server
	// closes: a still-gated rebuild must be released or Close deadlocks on
	// rebuildMu.
	t.Cleanup(g.Release)
	return g
}

func (g *stageGate) Release() {
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

func (g *stageGate) WaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("rebuild never reached the gated stage")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedReadsBeforeWrites: with an in-flight rebuild signalling pressure,
// reads are shed with a retryable 503 while a durable write through the
// same gate is still admitted and acknowledged — the shed order the gate
// exists to enforce.
func TestShedReadsBeforeWrites(t *testing.T) {
	cfg := corrConfig()
	cfg.MaxInFlight = 2 // readMax = 1, under pressure reads shed at 0
	srv := newServer(t, seedStore(t), cfg)
	gate := newStageGate(t, srv, "capture")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Park a rebuild mid-flight: /v1/refuse holds one write slot and
	// rebuildActive signals pressure.
	refuseDone := make(chan int, 1)
	go func() {
		_, code, _ := doJSON(t, "POST", ts.URL+"/v1/refuse", nil)
		refuseDone <- code
	}()
	gate.WaitEntered(t)

	// Reads now shed before reaching their handler.
	body, code, hdr := doJSON(t, "GET", ts.URL+"/v1/triple?subject=t0&predicate=p&object=v", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("read under pressure: status %d, want 503 (body %v)", code, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("shed 503 Retry-After = %q, want whole seconds >= 1", hdr.Get("Retry-After"))
	}
	if secs, ok := body["retryAfterSeconds"].(float64); !ok || secs <= 0 {
		t.Fatalf("shed 503 body retryAfterSeconds = %v, want > 0", body["retryAfterSeconds"])
	}
	if got := srv.m.shed.With("triple").Load(); got != 1 {
		t.Fatalf("corrfused_shed_total{triple} = %d, want 1", got)
	}

	// A write through the same gate is still admitted and acknowledged.
	obody, ocode, _ := doJSON(t, "POST", ts.URL+"/v1/observe",
		Observation{Source: "good1", Subject: "shed1", Predicate: "p", Object: "v"})
	if ocode != http.StatusOK {
		t.Fatalf("write under read-shedding pressure: status %d, body %v", ocode, obody)
	}
	if got := srv.m.shed.With("observe").Load(); got != 0 {
		t.Fatalf("corrfused_shed_total{observe} = %d, want 0", got)
	}

	gate.Release()
	if code := <-refuseDone; code != http.StatusOK {
		t.Fatalf("gated refuse finished with %d", code)
	}
	// Pressure clears once the rebuild lands: reads flow again.
	waitFor(t, "pressure to clear", func() bool { return !srv.rebuildActive.Load() })
	if _, code, _ := doJSON(t, "GET", ts.URL+"/v1/triple?subject=t0&predicate=p&object=v", nil); code != http.StatusOK {
		t.Fatalf("read after pressure cleared: status %d", code)
	}
}

// TestDeadlineCancelsSlowRebuild: a /v1/refuse that blows its budget
// (refuseTimeoutFactor x RequestTimeout) returns a retryable 503, the
// abandoned rebuild aborts at its next checkpoint without swapping a
// snapshot, and the service recovers to serve the next refuse normally.
func TestDeadlineCancelsSlowRebuild(t *testing.T) {
	cfg := corrConfig()
	cfg.RequestTimeout = 30 * time.Millisecond // refuse budget: 300ms
	srv := newServer(t, seedStore(t), cfg)
	gate := newStageGate(t, srv, "capture")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := srv.m.rebuilds.Load()
	body, code, _ := doJSON(t, "POST", ts.URL+"/v1/refuse", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-budget refuse: status %d, want 503 (body %v)", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "re-fusion canceled") {
		t.Fatalf("over-budget refuse error = %v", body["error"])
	}

	// The handler answered at the deadline; the parked rebuild observes
	// its canceled context once released and aborts before training.
	gate.Release()
	waitFor(t, "canceled rebuild to unwind", func() bool { return !srv.rebuildActive.Load() })
	if got := srv.m.rebuilds.Load(); got != base {
		t.Fatalf("canceled refuse still completed a rebuild: %d -> %d", base, got)
	}

	// The gate is open now: the next refuse fits its budget and succeeds.
	body, code, _ = doJSON(t, "POST", ts.URL+"/v1/refuse", nil)
	if code != http.StatusOK {
		t.Fatalf("refuse after recovery: status %d, body %v", code, body)
	}
	if got := srv.m.rebuilds.Load(); got != base+1 {
		t.Fatalf("rebuilds after recovery = %d, want %d", got, base+1)
	}
}

// TestClientDisconnectCancelsRebuild: a client that abandons /v1/refuse
// mid-rebuild cancels the in-flight work (it was the only waiter), and the
// rebuild aborts at its next checkpoint instead of training and swapping a
// snapshot nobody asked to keep.
func TestClientDisconnectCancelsRebuild(t *testing.T) {
	cfg := corrConfig()
	srv := newServer(t, seedStore(t), cfg)
	gate := newStageGate(t, srv, "capture")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := srv.m.rebuilds.Load()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/refuse", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	gate.WaitEntered(t)

	cancel() // the client hangs up while the rebuild is parked
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response")
	}
	// The last waiter left: the flight cancels the rebuild's context.
	waitFor(t, "flight to cancel", func() bool { return srv.refuseFlight.Waiters() == 0 })

	gate.Release()
	waitFor(t, "abandoned rebuild to unwind", func() bool { return !srv.rebuildActive.Load() })
	if got := srv.m.rebuilds.Load(); got != base {
		t.Fatalf("abandoned refuse still completed a rebuild: %d -> %d", base, got)
	}
}

// TestRefuseCoalescing is the stampede test: five concurrent /v1/refuse
// requests deterministically assembled behind a gated rebuild produce
// exactly ONE rebuild — one refresh trace, rebuilds +1 — with all five
// acknowledged against the identical snapshot and four marked coalesced.
func TestRefuseCoalescing(t *testing.T) {
	cfg := corrConfig()
	srv := newServer(t, seedStore(t), cfg)
	gate := newStageGate(t, srv, "capture")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	refreshTraces := func() int {
		n := 0
		for _, tr := range srv.traces.Snapshots() {
			if tr.Name == "refresh" {
				n++
			}
		}
		return n
	}
	baseRebuilds := srv.m.rebuilds.Load()
	baseTraces := refreshTraces()

	const n = 5
	type result struct {
		body map[string]any
		code int
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	fire := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, code, _ := doJSON(t, "POST", ts.URL+"/v1/refuse", nil)
			results <- result{body, code}
		}()
	}
	fire() // the leader registers the flight and parks in the gate
	waitFor(t, "leader to join the flight", func() bool { return srv.refuseFlight.Waiters() == 1 })
	for i := 1; i < n; i++ {
		fire()
	}
	waitFor(t, "burst to assemble", func() bool { return srv.refuseFlight.Waiters() == n })
	gate.Release()
	wg.Wait()
	close(results)

	var seq, version any
	coalesced := 0
	for res := range results {
		if res.code != http.StatusOK {
			t.Fatalf("coalesced refuse: status %d, body %v", res.code, res.body)
		}
		if seq == nil {
			seq, version = res.body["snapshotSeq"], res.body["snapshotVersion"]
		} else if res.body["snapshotSeq"] != seq || res.body["snapshotVersion"] != version {
			t.Fatalf("coalesced waiters saw different snapshots: (%v,%v) vs (%v,%v)",
				seq, version, res.body["snapshotSeq"], res.body["snapshotVersion"])
		}
		if res.body["coalesced"] == true {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d responses marked coalesced, want %d", coalesced, n-1)
	}
	if got := srv.m.refuseCoalesced.Load(); got != n-1 {
		t.Fatalf("corrfused_refuse_coalesced_total = %d, want %d", got, n-1)
	}
	if got := srv.m.rebuilds.Load(); got != baseRebuilds+1 {
		t.Fatalf("burst of %d refuses ran %d rebuilds, want exactly 1", n, got-baseRebuilds)
	}
	if got := refreshTraces(); got != baseTraces+1 {
		t.Fatalf("burst left %d new refresh traces, want exactly 1", got-baseTraces)
	}
}

// TestAdmissionDisabledByDefault: the zero Config wires no admission
// middleware at all — no shedder, no deadline on the request
// context — so existing deployments see byte-identical behavior.
func TestAdmissionDisabledByDefault(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	if srv.shedder != nil {
		t.Fatal("zero config built admission state")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 50; i++ {
		if _, code, _ := doJSON(t, "GET", ts.URL+"/v1/subject/t0", nil); code != http.StatusOK {
			t.Fatalf("request %d refused with admission disabled: %d", i, code)
		}
	}
}

// TestWriteJSONEncodeFailure: an unencodable response body is counted and
// — because the encode now runs into a pooled buffer before the status
// line is written — answered with a clean 500 and a well-formed error
// body, never a truncated 2xx.
func TestWriteJSONEncodeFailure(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, map[string]any{"bad": math.NaN()})
	if got := srv.m.encodeFailures.Load(); got != 1 {
		t.Fatalf("corrfused_response_encode_failures_total = %d, want 1", got)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (encode failed before any bytes were written)", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("error body not well-formed JSON: %q (err=%v)", rec.Body.String(), err)
	}
}
