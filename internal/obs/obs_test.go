package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(50 * time.Millisecond)  // bucket 2
	h.Observe(2 * time.Second)        // +Inf
	h.Observe(-time.Second)           // clamped to 0 → bucket 0

	cum, count, sum := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	wantSum := 0.0005 + 0.005 + 0.05 + 2
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := NewHistogram([]float64{0.001})
	h.Observe(time.Millisecond) // exactly the bound: le is inclusive
	cum, _, _ := h.snapshot()
	if cum[0] != 1 {
		t.Fatalf("1ms observation landed past le=0.001: %v", cum)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A counter.")
	c.Add(3)
	cv := r.CounterVec("test_codes_total", "By code.", "code")
	cv.With("404").Add(2)
	cv.With("200").Inc()
	r.GaugeFunc("test_gauge", "A gauge.", func() float64 { return 1.5 })
	r.SampleFunc("test_absent", "Suppressed family.", "gauge", func() []Sample { return nil })
	r.SampleFunc("test_shards", "Labeled gauge.", "gauge", func() []Sample {
		return []Sample{{Labels: Label("shard", "0"), Value: 7}}
	})
	h := r.Histogram("test_seconds", "A histogram.", []float64{0.01, 0.1})
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Second)
	hv := r.HistogramVec("test_stage_seconds", "Stage histogram.", "stage", []float64{0.01})
	hv.With("decode").Observe(time.Millisecond)
	hv.With("encode").Observe(20 * time.Millisecond)

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP test_total A counter.\n# TYPE test_total counter\ntest_total 3\n",
		`test_codes_total{code="200"} 1`,
		`test_codes_total{code="404"} 2`,
		"test_gauge 1.5",
		`test_shards{shard="0"} 7`,
		`test_seconds_bucket{le="0.01"} 1`,
		`test_seconds_bucket{le="+Inf"} 2`,
		"test_seconds_count 2",
		`test_stage_seconds_bucket{stage="decode",le="0.01"} 1`,
		`test_stage_seconds_bucket{stage="encode",le="0.01"} 0`,
		`test_stage_seconds_count{stage="encode"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "test_absent") {
		t.Error("suppressed family leaked into the exposition")
	}
	if errs := LintExposition(buf.Bytes()); len(errs) > 0 {
		t.Errorf("registry output fails its own lint: %v", errs)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup_total", "x")
	r.Counter("dup_total", "y")
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"missing type", "orphan 1\n", "no preceding TYPE"},
		{"missing help", "# TYPE bare counter\nbare 1\n", "no preceding HELP"},
		{"duplicate sample", "# HELP d x\n# TYPE d counter\nd 1\nd 2\n", "duplicate sample"},
		{"duplicate family", "# HELP d x\n# TYPE d counter\n# TYPE d counter\n", "duplicate TYPE"},
		{
			"non-monotone buckets",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="0.1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
				"h_sum 1\nh_count 3\n",
			"non-monotone",
		},
		{
			"inf != count",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 3` + "\n" + "h_sum 1\nh_count 4\n",
			`!= _count`,
		},
		{
			"missing inf",
			"# HELP h x\n# TYPE h histogram\n" + `h_bucket{le="0.1"} 3` + "\n" +
				"h_sum 1\nh_count 3\n",
			`end at le="+Inf"`,
		},
		{"bad value", "# HELP g x\n# TYPE g gauge\ng nope\n", "unparseable value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := LintExposition([]byte(tc.doc))
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.wantErr) {
					found = true
				}
			}
			if !found {
				t.Errorf("lint of %q: want an error containing %q, got %v", tc.doc, tc.wantErr, errs)
			}
		})
	}
}

func TestLintCleanDocument(t *testing.T) {
	doc := "# HELP ok_total x\n# TYPE ok_total counter\nok_total 1\n" +
		"# HELP h x\n# TYPE h histogram\n" +
		`h_bucket{le="0.1"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
		"h_sum 0.5\nh_count 3\n"
	if errs := LintExposition([]byte(doc)); len(errs) > 0 {
		t.Fatalf("clean document flagged: %v", errs)
	}
}

func TestTraceSpansAndRecorder(t *testing.T) {
	rec := NewTraceRecorder(2)
	for i := 0; i < 3; i++ {
		tr := NewTrace(fmt.Sprintf("id-%d", i), "test")
		begin := time.Now()
		time.Sleep(time.Millisecond)
		tr.AddSpan("stage", begin.Sub(tr.Start), time.Since(begin))
		tr.Finish(200)
		rec.Record(tr)
	}
	snaps := rec.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("ring retained %d traces, want 2", len(snaps))
	}
	// Most recent first; id-0 evicted.
	if snaps[0].ID != "id-2" || snaps[1].ID != "id-1" {
		t.Errorf("ring order = %s, %s; want id-2, id-1", snaps[0].ID, snaps[1].ID)
	}
	if rec.Total() != 3 {
		t.Errorf("total = %d, want 3", rec.Total())
	}
	if len(snaps[0].Spans) != 1 || snaps[0].Spans[0].Name != "stage" {
		t.Fatalf("spans = %+v", snaps[0].Spans)
	}
	if snaps[0].Spans[0].DurationUs <= 0 || snaps[0].DurationUs < snaps[0].Spans[0].DurationUs {
		t.Errorf("span %dus exceeds trace %dus", snaps[0].Spans[0].DurationUs, snaps[0].DurationUs)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("big", "test")
	for i := 0; i < maxSpans+10; i++ {
		tr.AddSpan("s", 0, time.Microsecond)
	}
	tr.Finish(200)
	snap := tr.snapshot()
	if len(snap.Spans) != maxSpans || snap.DroppedSpans != 10 {
		t.Fatalf("spans=%d dropped=%d, want %d and 10", len(snap.Spans), snap.DroppedSpans, maxSpans)
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.AddSpan("y", 0, 0)
	tr.Finish(200)
	if d := tr.Duration(); d != 0 {
		t.Fatal("nil trace has a duration")
	}
	var rec *TraceRecorder
	rec.Record(tr)
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatal("empty context returned a trace")
	}
}

func TestTraceIDGenerationAndSanitize(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatal("trace IDs collide")
	}
	if !SanitizeTraceID(a) {
		t.Fatalf("generated ID %q rejected by sanitizer", a)
	}
	for _, bad := range []string{"", "has space", "ctl\x01", strings.Repeat("x", 200), "uni\u00e9"} {
		if SanitizeTraceID(bad) {
			t.Errorf("sanitizer accepted %q", bad)
		}
	}
	if !SanitizeTraceID("client-supplied-123") {
		t.Error("sanitizer rejected a plain ASCII ID")
	}
}

func TestTraceHandler(t *testing.T) {
	rec := NewTraceRecorder(4)
	tr := NewTrace("slow-1", "observe")
	tr.AddSpan("decode", 0, 2*time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	tr.Finish(200)
	rec.Record(tr)

	w := httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	var out struct {
		Recorded int             `json:"recorded"`
		Traces   []TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v: %s", err, w.Body.String())
	}
	if out.Recorded != 1 || len(out.Traces) != 1 || out.Traces[0].ID != "slow-1" {
		t.Fatalf("unexpected payload: %s", w.Body.String())
	}

	// min_ms filters.
	w = httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?min_ms=60000", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 0 {
		t.Fatalf("min_ms did not filter: %s", w.Body.String())
	}

	w = httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?min_ms=nope", nil))
	if w.Code != 400 {
		t.Fatalf("bad min_ms got %d", w.Code)
	}

	// A client gone mid-write is counted, not silent.
	rec.Handler().ServeHTTP(brokenWriter{httptest.NewRecorder()}, httptest.NewRequest("GET", "/debug/traces", nil))
	if got := rec.EncodeFailures(); got != 1 {
		t.Fatalf("EncodeFailures = %d, want 1", got)
	}
}

// brokenWriter is a ResponseWriter whose body writes fail.
type brokenWriter struct{ *httptest.ResponseRecorder }

func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

func TestBuildInfo(t *testing.T) {
	bi := GetBuildInfo()
	if bi.Version == "" || bi.Commit == "" || !strings.HasPrefix(bi.GoVersion, "go") {
		t.Fatalf("build info = %+v", bi)
	}
	r := NewRegistry()
	RegisterBuildInfo(r, "test_build_info")
	var buf bytes.Buffer
	r.WriteTo(&buf)
	if !strings.Contains(buf.String(), `test_build_info{version=`) || !strings.Contains(buf.String(), "} 1\n") {
		t.Fatalf("build info exposition: %s", buf.String())
	}
	if errs := LintExposition(buf.Bytes()); len(errs) > 0 {
		t.Fatalf("build info fails lint: %v", errs)
	}
}

// TestLintFile lints an exposition document named by METRICS_LINT_FILE —
// the CI hook that validates a live server's /metrics output. Skipped when
// the variable is unset.
func TestLintFile(t *testing.T) {
	path := envMetricsLintFile()
	if path == "" {
		t.Skip("METRICS_LINT_FILE not set")
	}
	doc, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) == 0 {
		t.Fatalf("%s is empty", path)
	}
	if errs := LintExposition(doc); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
}

func envMetricsLintFile() string { return os.Getenv("METRICS_LINT_FILE") }

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
