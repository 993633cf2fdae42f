package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"corrfuse/internal/dataset"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

func writeStore(t *testing.T) string {
	t.Helper()
	st := store.New()
	tr := func(s string) triple.Triple { return triple.Triple{Subject: s, Predicate: "p", Object: "v"} }
	for i := 0; i < 8; i++ {
		st.Put(store.Entry{Triple: tr(fmt.Sprintf("t%d", i)), Sources: []string{"good1", "good2"}, Label: "true"})
	}
	for i := 0; i < 4; i++ {
		st.Put(store.Entry{Triple: tr(fmt.Sprintf("f%d", i)), Sources: []string{"bad"}, Label: "false"})
	}
	st.Put(store.Entry{Triple: tr("u1"), Sources: []string{"good1"}})
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeLifecycle boots the binary's run loop on a free port, exercises
// the API, shuts down on context cancel and checks the final persistence.
func TestServeLifecycle(t *testing.T) {
	testServeLifecycle(t, 1, 0)
}

// TestServeLifecycleSharded runs the same lifecycle with -shards 4 and two
// scoring workers: -shards and -partial-rebuild are inert, so the forced
// re-fusion reports and the persisted fusion result equal the one-shard
// run's.
func TestServeLifecycleSharded(t *testing.T) {
	wantRefuse, want := testServeLifecycle(t, 1, 0)
	refuse, got := testServeLifecycle(t, 4, 2)
	delete(wantRefuse, "durationMs")
	delete(refuse, "durationMs")
	if !reflect.DeepEqual(refuse, wantRefuse) {
		t.Errorf("refuse with -shards 4: %v, with -shards 1: %v", refuse, wantRefuse)
	}
	if got.Probability != want.Probability || got.Accepted != want.Accepted {
		t.Errorf("persisted u1 with -shards 4: %+v, with -shards 1: %+v", got, want)
	}
}

// testServeLifecycle runs the lifecycle and returns the /v1/refuse body and
// the persisted entry of the claimed triple.
func testServeLifecycle(t *testing.T, shards, parallelism int) (map[string]any, store.Entry) {
	path := writeStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			storePath: path, addr: "127.0.0.1:0", method: "corr", scope: "global",
			smoothing: 0.1, refresh: time.Hour,
			shards: shards, parallelism: parallelism, partialRebuild: true,
			logFormat: "text", logLevel: "info",
		}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	obs, _ := json.Marshal(map[string]string{"source": "good2", "subject": "u1", "predicate": "p", "object": "v"})
	resp, err = http.Post(base+"/v1/observe", "application/json", bytes.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/refuse", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	var refuse map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&refuse); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never shut down")
	}

	// -persist defaulted to the store path: the ingested claim and the
	// fusion results must be on disk.
	st, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := st.Get(triple.Triple{Subject: "u1", Predicate: "p", Object: "v"})
	if !ok || len(e.Sources) != 2 {
		t.Fatalf("ingested provenance not persisted: %+v", e)
	}
	if e.Probability == 0 {
		t.Fatal("fusion result not persisted")
	}
	return refuse, e
}

// TestDatagenFileServesEveryTriple is the README's documented flow, datagen
// -out d.jsonl && fused -store d.jsonl: the file datagen writes
// (dataset.Write) loads as exactly its N triples and serves from the first
// snapshot. It used to load as one empty triple.
func TestDatagenFileServesEveryTriple(t *testing.T) {
	const n = 2000
	d, err := dataset.Generate(dataset.UniformSpec(5, n, 0.5, 0.7, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.Write(f, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			storePath: path, addr: "127.0.0.1:0", method: "corr", scope: "global",
			refresh: time.Hour, shards: 1, persist: "-",
			logFormat: "text", logLevel: "info",
		}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	defer func() {
		cancel()
		if err := <-errc; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("\ncorrfused_store_triples %d\n", n); !bytes.Contains(metrics, []byte(want)) {
		t.Fatalf("/metrics lacks %q", want)
	}
	id := triple.TripleID(0)
	for len(d.Providers(id)) == 0 {
		id++ // the first triple some source provides
	}
	probe := d.Triple(id)
	body, _ := json.Marshal(map[string]any{"triples": []map[string]string{
		{"subject": probe.Subject, "predicate": probe.Predicate, "object": probe.Object}}})
	resp, err = http.Post(base+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	score, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(score, []byte(`"basis":"snapshot"`)) {
		t.Fatalf("/v1/score did not answer from the snapshot: %s", score)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	base := func(path string) options {
		return options{storePath: path, addr: ":0", method: "corr", scope: "global", persist: "-", shards: 1,
			logFormat: "text", logLevel: "info"}
	}
	if err := run(ctx, base(""), nil); err == nil {
		t.Error("missing store should fail")
	}
	if err := run(ctx, base("/nonexistent.jsonl"), nil); err == nil {
		t.Error("unreadable store should fail")
	}
	path := writeStore(t)
	o := base(path)
	o.method = "nope"
	if err := run(ctx, o, nil); err == nil {
		t.Error("unknown method should fail")
	}
	o = base(path)
	o.scope = "sideways"
	if err := run(ctx, o, nil); err == nil {
		t.Error("unknown scope should fail")
	}
	o = base(path)
	o.shards = -3
	if err := run(ctx, o, nil); err == nil {
		t.Error("negative shards should fail")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := store.New().Save(empty); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, base(empty), nil); err == nil {
		t.Error("empty store should fail")
	}
	// A store line outside the one file schema is refused at load, with the
	// line number and the offending key — never loaded as an empty triple
	// that fails later at training.
	good := `{"subject":"s","predicate":"p","object":"o","sources":["a"],"label":"true"}`
	for name, tc := range map[string]struct{ body, line, key string }{
		"old nested dialect": {`{"triple":{"Subject":"s","Predicate":"p","Object":"o"},"sources":["a"],"label":"true"}` + "\n", "line 1:", `"triple"`},
		"unknown field":      {good + "\n" + `{"subject":"s2","predicate":"p","object":"o","extra":1}` + "\n", "line 2:", `"extra"`},
	} {
		bad := filepath.Join(t.TempDir(), "bad.jsonl")
		if err := os.WriteFile(bad, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		// Bounded: a loader that accepted the file would serve forever.
		loadCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := run(loadCtx, base(bad), nil)
		cancel()
		if err == nil || !strings.Contains(err.Error(), tc.line) || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s: error %v, want %s and %s", name, err, tc.line, tc.key)
		}
	}
	o = base(path)
	o.logLevel = "loud"
	if err := run(ctx, o, nil); err == nil {
		t.Error("unknown log level should fail")
	}
	o = base(path)
	o.logFormat = "jsno"
	if err := run(ctx, o, nil); err == nil {
		t.Error("unknown log format should fail")
	}
}

// TestObservabilityEndpoints boots the run loop with a debug listener and
// checks the observability surface end to end: trace ID echo and retrieval
// via /debug/traces, build info on /healthz, and pprof + metrics on the
// separate debug address.
func TestObservabilityEndpoints(t *testing.T) {
	path := writeStore(t)

	// Reserve a port for the debug listener (closed again before run binds
	// it; the tiny reuse race is acceptable in tests).
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := dln.Addr().String()
	dln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			storePath: path, addr: "127.0.0.1:0", method: "corr", scope: "global",
			smoothing: 0.1, refresh: time.Hour, shards: 1, persist: "-",
			logFormat: "json", logLevel: "warn",
			debugAddr: debugAddr,
		}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	defer func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server never shut down")
		}
	}()

	// A well-formed caller trace ID is honored and echoed.
	req, _ := http.NewRequest("GET", base+"/healthz", nil)
	req.Header.Set("X-Corrfused-Trace-Id", "cmd-test-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if got := resp.Header.Get("X-Corrfused-Trace-Id"); got != "cmd-test-trace-1" {
		t.Errorf("trace ID not echoed: got %q", got)
	}
	for _, field := range []string{"version", "commit", "goVersion"} {
		if v, ok := health[field].(string); !ok || v == "" {
			t.Errorf("healthz missing build info field %q: %v", field, health[field])
		}
	}

	// The traced request is retrievable from the debug listener's ring.
	dbase := "http://" + debugAddr
	resp, err = http.Get(dbase + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug /debug/traces: %d", resp.StatusCode)
	}
	if !bytes.Contains(raw, []byte("cmd-test-trace-1")) {
		t.Errorf("trace not found in /debug/traces: %s", raw)
	}

	// pprof and the metrics mirror are up on the debug address.
	resp, err = http.Get(dbase + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug pprof: %d", resp.StatusCode)
	}
	resp, err = http.Get(dbase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte("corrfused_build_info{")) {
		t.Errorf("debug /metrics missing corrfused_build_info: %.200s", raw)
	}
}

// TestServeLifecycleWAL runs the lifecycle with a durable write-ahead log:
// observe acks carry the WAL sequence, health reports the log state, and a
// clean shutdown truncates the log down to what the persisted store covers
// (so the next boot replays nothing).
func TestServeLifecycleWAL(t *testing.T) {
	path := writeStore(t)
	walDir := filepath.Join(filepath.Dir(path), "wal")
	o := options{
		storePath: path, addr: "127.0.0.1:0", method: "corr", scope: "global",
		smoothing: 0.1, refresh: time.Hour, shards: 1,
		walDir: walDir, walSync: "always", walSyncInterval: 100 * time.Millisecond,
		walSegmentBytes: 1 << 20, logFormat: "text", logLevel: "info",
	}
	boot := func() (string, context.CancelFunc, chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		go func() { errc <- run(ctx, o, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, cancel, errc
		case err := <-errc:
			t.Fatalf("server exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
		}
		panic("unreachable")
	}
	shutdown := func(cancel context.CancelFunc, errc chan error) {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server never shut down")
		}
	}

	base, cancel, errc := boot()
	obs, _ := json.Marshal(map[string]string{"source": "good2", "subject": "wal-live", "predicate": "p", "object": "v"})
	resp, err := http.Post(base+"/v1/observe", "application/json", bytes.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d", resp.StatusCode)
	}
	if seq, ok := ack["walSeq"].(float64); !ok || seq < 1 {
		t.Fatalf("observe ack has no walSeq: %v", ack)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if _, ok := health["wal"].(map[string]any); !ok {
		t.Fatalf("healthz has no wal status: %v", health)
	}
	shutdown(cancel, errc)

	// Clean shutdown persisted + truncated: the reboot recovers nothing
	// but still finds the ingested claim in the store.
	base, cancel, errc = boot()
	defer shutdown(cancel, errc)
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = nil
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	w, ok := health["wal"].(map[string]any)
	if !ok {
		t.Fatalf("rebooted healthz has no wal status: %v", health)
	}
	if n := w["recoveredRecords"].(float64); n != 0 {
		t.Errorf("clean shutdown left %v records to replay", n)
	}
	st, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(triple.Triple{Subject: "wal-live", Predicate: "p", Object: "v"}); !ok {
		t.Error("ingested claim not persisted across clean WAL shutdown")
	}
}

// TestHTTPServerTimeouts: run builds both listeners (public and debug)
// through httpServer, so every http.Server carries the fixed connection-level
// timeouts — the zero values they used to ship with left the daemon open to
// slowloris clients holding connections forever.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := httpServer(http.NewServeMux())
	if hs.Handler == nil {
		t.Fatal("httpServer dropped the handler")
	}
	if hs.ReadHeaderTimeout != 10*time.Second || hs.ReadTimeout != 2*time.Minute ||
		hs.WriteTimeout != 10*time.Minute || hs.IdleTimeout != 2*time.Minute {
		t.Errorf("timeouts = header %v, read %v, write %v, idle %v; want 10s, 2m, 10m, 2m",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
}
