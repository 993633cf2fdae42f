package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"corrfuse"
	"corrfuse/internal/store"
)

// updateGolden regenerates the golden response files:
//
//	go test ./internal/serve -run TestGoldenReplay -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenReplay replays the committed fixture store and claim journal
// through a full sharded server over HTTP and pins the complete JSON bodies
// of /v1/refuse and /v1/subject against golden files. Any change to the
// serving shape — fields, ranking, probabilities, partial-rebuild counts —
// shows up as a readable golden diff. Probabilities are rounded to 1e-9 and
// durationMs zeroed before comparison, so the goldens are robust to
// platform math-library ULP differences and wall-clock noise.
func TestGoldenReplay(t *testing.T) {
	st, err := store.Load(filepath.Join("testdata", "golden_store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Options: corrfuse.Options{
			Method:      corrfuse.PrecRecCorr,
			Smoothing:   0.1,
			Shards:      2,
			Parallelism: 2,
		},
		PartialRebuild:  true,
		PenalizeSilence: true,
	}
	srv := newServer(t, st, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Replay the journal: one /v1/observe per committed claim.
	jf, err := os.Open(filepath.Join("testdata", "golden_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	sc := bufio.NewScanner(jf)
	claims := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		resp, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(sc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe claim %d: %d", claims, resp.StatusCode)
		}
		claims++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if claims == 0 {
		t.Fatal("empty journal fixture")
	}

	// Re-fuse (the dirty-shard partial path: the journal touched a subset
	// of subjects) and pin the full response.
	resp, err := http.Post(ts.URL+"/v1/refuse", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	refuse, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refuse: %d: %s", resp.StatusCode, refuse)
	}
	checkGolden(t, "golden_refuse.json", refuse)

	// Pin the full subject bodies: one subject fused entirely from the
	// journal, one whose journal claim joined seeded provenance.
	for _, subject := range []string{"eris", "pluto"} {
		resp, err := http.Get(ts.URL + "/v1/subject/" + subject)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subject %s: %d: %s", subject, resp.StatusCode, body)
		}
		checkGolden(t, fmt.Sprintf("golden_subject_%s.json", subject), body)
	}
}

// checkGolden normalizes a response body and compares it against (or, with
// -update, rewrites) the named golden file.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	got := normalizeJSON(t, body)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create the golden files)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// normalizeJSON canonicalizes a response body for golden comparison: keys
// sorted (via map round-trip), every number rounded to 9 decimals, and the
// wall-clock durationMs field zeroed.
func normalizeJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("normalize %s: %v", raw, err)
	}
	v = normalizeValue(v, "")
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func normalizeValue(v any, key string) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = normalizeValue(e, k)
		}
		return x
	case []any:
		for i, e := range x {
			x[i] = normalizeValue(e, "")
		}
		return x
	case float64:
		if key == "durationMs" {
			return 0.0
		}
		return math.Round(x*1e9) / 1e9
	default:
		return v
	}
}
