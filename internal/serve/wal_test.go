package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"corrfuse/internal/store"
	"corrfuse/internal/wal"
)

// walConfig is corrConfig plus a durable WAL in dir (and the snapshot path
// a WAL requires; callers persisting elsewhere override PersistPath).
func walConfig(dir string) Config {
	cfg := corrConfig()
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.WALSync = wal.SyncAlways
	cfg.PersistPath = filepath.Join(dir, "store.jsonl")
	return cfg
}

// TestWALRequiresPersistPath: a WAL whose segments could never be truncated
// (no snapshot to cover them) is a misconfiguration, not a mode.
func TestWALRequiresPersistPath(t *testing.T) {
	cfg := corrConfig()
	cfg.WALDir = filepath.Join(t.TempDir(), "wal")
	if _, err := New(seedStore(t), cfg); err == nil {
		t.Fatal("New accepted WALDir without PersistPath")
	}
}

// TestPersistUnremovableSnapshotKeepsWAL: when the binary snapshot can be
// neither rewritten nor removed, the next start could prefer it over the
// fresh JSONL, so persist must fail and leave the WAL untruncated — the
// acknowledged write then still reaches the restart through replay.
func TestPersistUnremovableSnapshotKeepsWAL(t *testing.T) {
	cfg := walConfig(t.TempDir())
	if err := os.MkdirAll(filepath.Join(store.BinaryPath(cfg.PersistPath), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err := New(seedStore(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	if _, code := postObserve(t, ts.URL, Observation{Source: "good1", Subject: "stuck", Predicate: "p", Object: "v"}); code != http.StatusOK {
		t.Fatalf("observe: %d", code)
	}
	ts.Close()
	if err := srv.persist(); err == nil {
		t.Fatal("persist succeeded with a stale snapshot it could not remove")
	}
	if srv.lastPersistError() == "" {
		t.Fatal("persist failure not surfaced")
	}
	if _, err := store.Load(cfg.PersistPath); err != nil {
		t.Fatalf("JSONL store not written: %v", err)
	}
	// srv is abandoned like a crashed process; the restart replays the WAL.
	srv2, err := New(seedStore(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.walRecovered != 1 {
		t.Fatalf("recovered %d WAL records, want the 1 the failed persist must not truncate", srv2.walRecovered)
	}
}

// recoveredLine matches the WAL recovery line's duration attribute.
var recoveredLine = regexp.MustCompile(`msg="serve: wal: recovered acknowledged observations" .* duration=(\S+)`)

// postObserve posts one observation and returns the decoded body and status.
func postObserve(t *testing.T, base string, o Observation) (map[string]any, int) {
	t.Helper()
	raw, _ := json.Marshal(o)
	resp, err := http.Post(base+"/v1/observe", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

// TestWALRecoveryAfterCrash: acknowledged observations that never reached a
// store snapshot survive a crash via WAL replay. The "crash" abandons the
// first server without Close — no final persist, no truncation — exactly
// the state a SIGKILL leaves behind (the subprocess variant in
// crash_test.go kills a real process; this pins the replay path itself).
func TestWALRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.jsonl")
	if err := seedStoreData().Save(storePath); err != nil {
		t.Fatal(err)
	}

	st1, err := store.Load(storePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := walConfig(dir)
	cfg.PersistPath = storePath
	srv1, err := New(st1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv1.Handler())

	// Acked single observes plus an acked batch — none of them persisted.
	acked := []Observation{
		{Source: "good1", Subject: "crash1", Predicate: "p", Object: "v"},
		{Source: "good2", Subject: "crash1", Predicate: "p", Object: "v"},
		{Source: "bad", Subject: "crash2", Predicate: "p", Object: "v", Label: "false"},
	}
	for _, o := range acked[:2] {
		body, code := postObserve(t, ts.URL, o)
		if code != http.StatusOK {
			t.Fatalf("observe: %d", code)
		}
		if _, ok := body["walSeq"]; !ok {
			t.Fatal("observe ack missing walSeq with a WAL configured")
		}
	}
	raw, _ := json.Marshal(map[string]any{"observations": acked[2:]})
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch observe: %d", resp.StatusCode)
	}
	ts.Close()
	// Crash: srv1 is abandoned — no Close, no persist, no WAL truncation.

	// Restart from the stale snapshot plus the WAL.
	st2, err := store.Load(storePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range acked {
		if _, ok := st2.Get(tr(o.Subject, "v")); ok {
			t.Fatalf("%s already in the stale snapshot; test is vacuous", o.Subject)
		}
	}
	var lc logCollector
	cfg.Logger = lc.logger()
	srv2 := newServer(t, st2, cfg)
	if srv2.walRecovered != len(acked) {
		t.Fatalf("recovered %d records, want %d", srv2.walRecovered, len(acked))
	}
	// The recovery line says how long the replay took, unrounded.
	if m := recoveredLine.FindStringSubmatch(strings.Join(lc.lines(), "\n")); m == nil {
		t.Errorf("no timed recovery line; lines: %v", lc.lines())
	} else if d, err := time.ParseDuration(m[1]); err != nil || d <= 0 {
		t.Errorf("recovery line has duration %q, want > 0", m[1])
	}
	for _, o := range acked {
		e, ok := st2.Get(tr(o.Subject, "v"))
		if !ok {
			t.Fatalf("acknowledged observation %s lost in the crash", o.Subject)
		}
		if !containsStr(e.Sources, o.Source) {
			t.Fatalf("%s lost its provenance: %v misses %s", o.Subject, e.Sources, o.Source)
		}
		if o.Label != "" && e.Label != o.Label {
			t.Fatalf("%s lost its label: %q, want %q", o.Subject, e.Label, o.Label)
		}
	}
	// The initial fusion already scored the recovered claims.
	sn := srv2.snap.Load()
	if _, ok := sn.data.TripleID(tr("crash1", "v")); !ok {
		t.Fatal("recovered claim missing from the startup snapshot's dataset")
	}

	// Recovery status is surfaced on /healthz and /v1/refuse.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	health, _ := getJSON(t, ts2.URL+"/healthz")
	w, ok := health["wal"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no wal status: %v", health)
	}
	if got := w["recoveredRecords"].(float64); int(got) != len(acked) {
		t.Fatalf("healthz wal.recoveredRecords = %v, want %d", got, len(acked))
	}
	ref := postJSON(t, ts2.URL+"/v1/refuse", struct{}{})
	if _, ok := ref["wal"].(map[string]any); !ok {
		t.Fatalf("refuse has no wal status: %v", ref)
	}
}

// TestWALTruncationOnPersist: each successful persist truncates the
// segments the snapshot covers, so the log tracks the un-persisted suffix;
// observations acked after the persist's capture survive a crash even
// though truncation ran.
func TestWALTruncationOnPersist(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.jsonl")
	if err := seedStoreData().Save(storePath); err != nil {
		t.Fatal(err)
	}
	st, _ := store.Load(storePath)
	cfg := walConfig(dir)
	cfg.PersistPath = storePath
	cfg.WALSegmentBytes = 128 // rotate every couple of records
	srv, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	for i := 0; i < 6; i++ {
		o := Observation{Source: "good1", Subject: "pre" + string(rune('a'+i)), Predicate: "p", Object: "v"}
		if _, code := postObserve(t, ts.URL, o); code != http.StatusOK {
			t.Fatalf("observe: %d", code)
		}
	}
	before := srv.wal.Stats()
	if before.Segments < 2 {
		t.Fatalf("expected several segments before persist, got %d", before.Segments)
	}

	// /v1/refuse rebuilds AND persists: the log must shrink to ~empty.
	postJSON(t, ts.URL+"/v1/refuse", struct{}{})
	after := srv.wal.Stats()
	if after.Segments > 1 || after.Bytes >= before.Bytes {
		t.Fatalf("persist did not truncate the WAL: %+v -> %+v", before, after)
	}
	if after.Seq != before.Seq {
		t.Fatalf("truncation changed the sequence: %d -> %d", before.Seq, after.Seq)
	}

	// A post-persist ack lands in the suffix; crash + restart must keep it
	// (and replay nothing that the snapshot already covers).
	if _, code := postObserve(t, ts.URL, Observation{Source: "good2", Subject: "suffix", Predicate: "p", Object: "v"}); code != http.StatusOK {
		t.Fatal("post-persist observe refused")
	}
	ts.Close() // crash: no Close

	st2, err := store.Load(storePath)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newServer(t, st2, cfg)
	if srv2.walRecovered != 1 {
		t.Fatalf("replayed %d records, want only the post-persist suffix (1)", srv2.walRecovered)
	}
	if _, ok := st2.Get(tr("suffix", "v")); !ok {
		t.Fatal("post-persist acknowledged observation lost")
	}
	if _, ok := st2.Get(tr("prea", "v")); !ok {
		t.Fatal("persisted observation lost from the snapshot")
	}
}

// TestShutdownOrderingNoWAL pins the shutdown contract without a WAL: once
// Close has begun, observes are refused with 503 — never acknowledged into
// a store the final persist may already have captured.
func TestShutdownOrderingNoWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := corrConfig()
	cfg.PersistPath = filepath.Join(dir, "store.jsonl")
	srv, err := New(seedStore(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Simulate Close having just begun (the flag flips before the final
	// persist): an in-flight observe must be refused, not acknowledged.
	srv.closing.Store(true)
	body, code := postObserve(t, ts.URL, Observation{Source: "good1", Subject: "late", Predicate: "p", Object: "v"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("observe during shutdown: %d (%v), want 503", code, body)
	}
	if _, ok := srv.store.Get(tr("late", "v")); ok {
		t.Fatal("refused observation reached the store anyway")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, code := postObserve(t, ts.URL, Observation{Source: "good1", Subject: "later", Predicate: "p", Object: "v"}); code != http.StatusServiceUnavailable {
		t.Fatalf("observe after Close: %d, want 503", code)
	}
}

// TestShutdownOrderingWAL pins the other half of the contract: with a WAL,
// observes racing Close are still acknowledged as long as the log can make
// them durable — and such an ack survives the restart even though the final
// persist's capture missed it. After the WAL closes, observes get 503.
func TestShutdownOrderingWAL(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.jsonl")
	if err := seedStoreData().Save(storePath); err != nil {
		t.Fatal(err)
	}
	st, _ := store.Load(storePath)
	cfg := walConfig(dir)
	cfg.PersistPath = storePath
	srv, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Close has begun (final persist running), WAL still open: the observe
	// is durable, so it is acknowledged.
	srv.closing.Store(true)
	body, code := postObserve(t, ts.URL, Observation{Source: "good1", Subject: "during-close", Predicate: "p", Object: "v"})
	if code != http.StatusOK {
		t.Fatalf("durable observe during shutdown refused: %d (%v)", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// WAL closed: no durability left to offer — refuse.
	if _, code := postObserve(t, ts.URL, Observation{Source: "good1", Subject: "post-close", Predicate: "p", Object: "v"}); code != http.StatusServiceUnavailable {
		t.Fatalf("observe after WAL close: %d, want 503", code)
	}

	// The during-close ack survives the restart: Close's persist captured
	// the WAL head before saving, so the record was either in the snapshot
	// or retained in the log — both paths keep it.
	st2, err := store.Load(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(tr("during-close", "v")); ok {
		return // captured by the final persist
	}
	srv2 := newServer(t, st2, cfg)
	if _, ok := srv2.store.Get(tr("during-close", "v")); !ok {
		t.Fatal("observation acknowledged during shutdown was lost")
	}
}

// TestObserveAmbiguousBody: a body carrying both a top-level observation
// and an "observations" array used to silently drop the former — it must be
// rejected wholesale with 400.
func TestObserveAmbiguousBody(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw := []byte(`{"source":"good1","subject":"solo","predicate":"p","object":"v",` +
		`"observations":[{"source":"good2","subject":"batched","predicate":"p","object":"v"}]}`)
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous body: %d, want 400", resp.StatusCode)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "ambiguous") {
		t.Fatalf("error not structured/descriptive: %v", body)
	}
	for _, sub := range []string{"solo", "batched"} {
		if _, ok := st.Get(tr(sub, "v")); ok {
			t.Fatalf("ambiguous body partially ingested (%s)", sub)
		}
	}
}

// TestObserveTrailingGarbage: a second JSON value (or garbage) after the
// document used to be silently ignored — reject it so clients learn their
// framing bug instead of losing half their payload.
func TestObserveTrailingGarbage(t *testing.T) {
	st := seedStore(t)
	srv := newServer(t, st, corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tail := range []string{
		`{"source":"good2","subject":"second","predicate":"p","object":"v"}`,
		`garbage`,
	} {
		payload := `{"source":"good1","subject":"first","predicate":"p","object":"v"}` + "\n" + tail
		resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trailing %q: %d, want 400", tail, resp.StatusCode)
		}
	}
	if _, ok := st.Get(tr("first", "v")); ok {
		t.Fatal("rejected request partially ingested")
	}
	// /v1/score gets the same treatment via the shared decoder.
	resp, err := http.Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"triples":[{"subject":"u1","predicate":"p","object":"v"}]} trailing`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("score with trailing garbage: %d, want 400", resp.StatusCode)
	}
}

// TestPersistFailureSurfaced: a service that can no longer save must say so
// — counter on /metrics, lastPersistError on /v1/refuse — not just log.
func TestPersistFailureSurfaced(t *testing.T) {
	cfg := corrConfig()
	cfg.PersistPath = filepath.Join(t.TempDir(), "no", "such", "dir", "store.jsonl")
	srv, err := New(seedStore(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Force a data change so the refuse rebuild is real, then refuse: the
	// rebuild succeeds, the persist fails, and the response says so.
	postObserve(t, ts.URL, Observation{Source: "good1", Subject: "pf", Predicate: "p", Object: "v"})
	ref := postJSON(t, ts.URL+"/v1/refuse", struct{}{})
	if msg, _ := ref["lastPersistError"].(string); msg == "" {
		t.Fatalf("refuse does not surface the persist failure: %v", ref)
	}
	if n, _ := ref["persistFailures"].(float64); n < 1 {
		t.Fatalf("persistFailures = %v, want >= 1", ref["persistFailures"])
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "corrfused_persist_failures_total 1") {
		t.Error("metrics missing corrfused_persist_failures_total 1")
	}

	// Close also fails to persist; it must report it rather than swallow.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err == nil {
		t.Fatal("Close swallowed the persist failure")
	}
}

// TestWALMetricsExposition: the WAL gauges are published once a WAL is
// configured.
func TestWALMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(t, seedStore(t), walConfig(dir))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postObserve(t, ts.URL, Observation{Source: "good1", Subject: "wm", Predicate: "p", Object: "v"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"corrfused_wal_seq 1",
		"corrfused_wal_durable_seq 1",
		"corrfused_wal_segments 1",
		"corrfused_wal_bytes ",
		"corrfused_wal_fsyncs_total ",
		"corrfused_wal_group_commit_size 1",
		"corrfused_wal_recovered_records 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
