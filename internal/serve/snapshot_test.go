package serve

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// scoreAll fetches /v1/score probabilities for every triple in the store.
func scoreAll(t *testing.T, base string, st *store.Store) map[string]float64 {
	t.Helper()
	d := st.Dataset()
	out := make(map[string]float64)
	for i := 0; i < d.NumTriples(); i++ {
		e := d.Triple(triple.TripleID(i))
		body := postJSON(t, base+"/v1/score", map[string]any{
			"triples": []map[string]string{{"subject": e.Subject, "predicate": e.Predicate, "object": e.Object}},
		})
		results, _ := body["results"].([]any)
		if len(results) != 1 {
			t.Fatalf("score %v: %d results", e, len(results))
		}
		r := results[0].(map[string]any)
		out[e.Key()], _ = r["probability"].(float64)
	}
	return out
}

// TestPersistDualFormatRoundTrip is the serve-level round-trip guarantee
// behind the binary snapshot: a persist writes both formats, a restart
// from the binary snapshot serves fused probabilities identical (within
// 1e-12; in practice bit-exact, since the store round-trips probability
// bits) to a restart from the JSONL store.
func TestPersistDualFormatRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	cfg := corrConfig()
	cfg.PersistPath = path

	seed := seedStore(t)
	srv := newServer(t, seed, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/refuse", struct{}{}) // rebuild + persist

	if _, err := os.Stat(path); err != nil {
		t.Fatalf("JSONL store not written: %v", err)
	}
	if _, err := os.Stat(store.BinaryPath(path)); err != nil {
		t.Fatalf("binary snapshot not written: %v", err)
	}

	// Restart twice: once preferring the binary snapshot, once forced to
	// parse JSONL. Both must serve the same fused probabilities.
	fromBin, info, err := store.LoadPreferred(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != "binary" || info.FallbackReason != "" {
		t.Fatalf("restart did not use the binary snapshot: %+v", info)
	}
	fromJSONL, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	binSrv := newServer(t, fromBin, corrConfig())
	binTS := httptest.NewServer(binSrv.Handler())
	defer binTS.Close()
	jsonlSrv := newServer(t, fromJSONL, corrConfig())
	jsonlTS := httptest.NewServer(jsonlSrv.Handler())
	defer jsonlTS.Close()

	binScores := scoreAll(t, binTS.URL, fromBin)
	jsonlScores := scoreAll(t, jsonlTS.URL, fromJSONL)
	if len(binScores) == 0 || len(binScores) != len(jsonlScores) {
		t.Fatalf("score coverage differs: %d vs %d triples", len(binScores), len(jsonlScores))
	}
	for k, p := range binScores {
		q, ok := jsonlScores[k]
		if !ok {
			t.Fatalf("triple %q missing from JSONL restart", k)
		}
		if math.Abs(p-q) > 1e-12 {
			t.Errorf("triple %q: binary restart %v vs JSONL restart %v", k, p, q)
		}
	}
}

// TestHealthzSnapshotSection: /healthz reports the recorded startup load,
// including a loud fallback reason.
func TestHealthzSnapshotSection(t *testing.T) {
	cfg := corrConfig()
	cfg.PersistPath = filepath.Join(t.TempDir(), "store.jsonl")
	cfg.SnapshotLoad = &store.LoadInfo{
		Format:         store.FormatJSONL,
		Bytes:          12345,
		Duration:       42 * time.Millisecond,
		FallbackReason: "invalid binary snapshot: CRC mismatch",
	}
	srv := newServer(t, seedStore(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, code := getJSON(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	snap, ok := body["snapshot"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing snapshot section: %v", body)
	}
	if snap["loadFormat"] != "jsonl" {
		t.Errorf("load format: %v", snap)
	}
	if b, _ := snap["loadBytes"].(float64); b != 12345 {
		t.Errorf("loadBytes = %v", snap["loadBytes"])
	}
	if reason, _ := snap["loadFallbackReason"].(string); reason == "" {
		t.Errorf("fallback reason not surfaced: %v", snap)
	}

	// The load metrics are published when SnapshotLoad is recorded.
	metrics := getMetrics(t, ts.URL)
	for _, want := range []string{
		"corrfused_snapshot_load_binary 0",
		"corrfused_snapshot_load_bytes 12345",
		"corrfused_snapshot_load_fallback 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSnapshotLoadMetricsSuppressed: without recorded load info the
// corrfused_snapshot_load_* families are absent entirely.
func TestSnapshotLoadMetricsSuppressed(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	metrics := getMetrics(t, ts.URL)
	if strings.Contains(metrics, "corrfused_snapshot_load_seconds") {
		t.Error("snapshot-load metrics published without load info")
	}
}

// TestCorruptBinarySnapshotFallsBackAtStartup drives the full restart
// path an operator would hit: persist both formats, corrupt the binary,
// reload — the JSONL store serves, the reason is recorded, and the
// fused results still match the original within 1e-12.
func TestCorruptBinarySnapshotFallsBackAtStartup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	cfg := corrConfig()
	cfg.PersistPath = path
	srv := newServer(t, seedStore(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/refuse", struct{}{})

	raw, err := os.ReadFile(store.BinaryPath(path))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x08
	if err := os.WriteFile(store.BinaryPath(path), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, info, err := store.LoadPreferred(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != "jsonl" || info.FallbackReason == "" {
		t.Fatalf("corrupt snapshot did not fall back loudly: %+v", info)
	}
	restarted := newServer(t, st, corrConfig())
	rts := httptest.NewServer(restarted.Handler())
	defer rts.Close()

	want := scoreAll(t, ts.URL, st)
	got := scoreAll(t, rts.URL, st)
	for k, p := range want {
		if q := got[k]; math.Abs(p-q) > 1e-12 {
			t.Errorf("triple %q: original %v vs fallback restart %v", k, p, q)
		}
	}
}
