//go:build linux

package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// toyRun runs one workload at toy scale: a 2k-triple store, one-second
// phases, two boots, one CLI iteration per method, the oracle on.
func toyRun(t *testing.T, workload string, trace bool, skew float64) *runResult {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH: the harness cannot build fused and fuse")
	}
	res, err := execute(runConfig{workload: workload, seed: 7, seconds: 1, trace: trace, sc: toyScale, oracleSkew: skew})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmoke keeps the harness compiling against the entry points it pins
// and its four workloads passing their own oracle. The traced run computes
// everything the untraced one does and the layer replays on top, so it is
// the one run here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts servers")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := toyRun(t, w.Name, true, 0)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			reported := 0
			for _, d := range perLayer {
				if res.Metrics[d.Name].N > 0 {
					reported++
				}
			}
			if reported < 10 {
				t.Errorf("only %d per-layer metrics reported", reported)
			}
			checkTrace(t, w.Name)
		})
	}
}

// checkTrace reads the flushed trace back: spans that share a request
// identifier, with children naming a parent of the same request.
func checkTrace(t *testing.T, workload string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "bench", "out", "trace-"+workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, s := range tr.Spans {
		if s.End < s.Start || s.Request == 0 {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent != 0 {
			children++
			if p := tr.Spans[s.Parent-1]; p.ID != s.Parent || p.Request != s.Request {
				t.Fatalf("span %+v names parent %+v of another request", s, p)
			}
		}
	}
	if len(tr.Spans) == 0 || (workload != "batch-fuse" && children == 0) {
		t.Fatalf("%d spans, %d with a parent", len(tr.Spans), children)
	}
}

// TestEndToEndMetricsNeverZero runs one workload untraced and checks what
// the result line promises: every end-to-end metric present and non-zero.
func TestEndToEndMetricsNeverZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts servers")
	}
	res := toyRun(t, "cold-boot", false, 0)
	var line struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.Name]; !ok || m.Value == 0 || m.Unit != d.Unit {
			t.Errorf("%s: %+v", d.Name, m)
		}
	}
}

// TestWrongOracleFails proves the checks bite: with an oracle that is off
// by a millionth, a run must count failures (and main then exits non-zero).
func TestWrongOracleFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts servers")
	}
	for _, w := range []string{"read-heavy", "batch-fuse"} {
		if res := toyRun(t, w, false, 1e-6); res.Failed == 0 || res.Correct {
			t.Errorf("%s: a wrong oracle went unnoticed over %d operations", w, res.Attempted)
		}
	}
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json and metrics.go in step.
func TestManifestMatchesCatalogue(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no manifest to compare with: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, catalogue %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, catalogue %+v", i, m.Workloads[i], w)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: manifest %+v, catalogue %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("got %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100.5, 99.5}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", tight, []float64{101, 102, 100, 101, 100.5}, "same"},
		{"worse", tight, []float64{120, 121, 119, 122, 120}, "worse"},
		{"better", tight, []float64{80, 81, 79, 80, 82}, "better"},
		{"unresolved", []float64{80, 100, 125, 90, 110}, []float64{85, 105, 120, 95, 112}, "unresolved"},
		{"noisy but every run better", []float64{100, 120, 140, 110, 130}, []float64{50, 60, 70, 55, 65}, "better"},
	} {
		if got := verdict(c.a, c.b, metricDef{Better: "lower", Bound: 0.10}); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// An absolute bound replaces the relative one: 0.004 of an F1 is within
	// 0.005, 0.006 is not, though both are under 1 % of 0.8.
	f1 := metricDef{Better: "higher", Bound: 0.02, AbsBound: 0.005}
	for delta, want := range map[float64]string{-0.004: "same", -0.006: "worse", 0.006: "better"} {
		if got := verdict([]float64{0.8, 0.8, 0.8}, []float64{0.8 + delta, 0.8 + delta, 0.8 + delta}, f1); got != want {
			t.Errorf("F1 %+v: %s, want %s", delta, got, want)
		}
	}
}
