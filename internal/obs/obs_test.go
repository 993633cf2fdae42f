package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
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
	rec := NewTraceRecorder(2, 0)
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

func TestTraceThresholdFilters(t *testing.T) {
	rec := NewTraceRecorder(8, time.Hour)
	tr := NewTrace("fast", "test")
	tr.Finish(200)
	rec.Record(tr)
	if got := rec.Snapshots(); len(got) != 0 {
		t.Fatalf("fast trace retained despite threshold: %+v", got)
	}
	if rec.Total() != 1 {
		t.Fatalf("total = %d, want 1", rec.Total())
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
	rec := NewTraceRecorder(4, 0)
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
}

func TestLoggerTextAndJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo, "text")
	ctx := ContextWithTrace(context.Background(), NewTrace("tid-1", "observe"))
	l.Info(ctx, "hello", "key", "value with space", "n", 42)
	l.Debug(ctx, "suppressed")
	line := buf.String()
	if !strings.Contains(line, "INFO hello") || !strings.Contains(line, `key="value with space"`) ||
		!strings.Contains(line, "n=42") || !strings.Contains(line, "traceId=tid-1") {
		t.Errorf("text line = %q", line)
	}
	if strings.Contains(line, "suppressed") {
		t.Error("debug line emitted at info level")
	}

	buf.Reset()
	j := NewLogger(&buf, LevelDebug, "json")
	j.Warn(ctx, "watch out", "err", fmt.Errorf("boom"), "d", 250*time.Millisecond)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("bad JSON log line %q: %v", buf.String(), err)
	}
	if rec["level"] != "warn" || rec["msg"] != "watch out" || rec["traceId"] != "tid-1" ||
		rec["err"] != "boom" || rec["d"] != "250ms" {
		t.Errorf("json record = %v", rec)
	}
}

func TestLoggerMarshalFallbackCounted(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo, "json")
	before := EncodeFailures()
	// NaN survives jsonValue's coercion and defeats json.Marshal, forcing
	// the fallback record; the loss must be counted, never silent.
	l.Info(context.Background(), "bad payload", "v", math.NaN())
	if got := EncodeFailures() - before; got != 1 {
		t.Fatalf("EncodeFailures delta = %d, want 1", got)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("fallback line is not valid JSON: %q: %v", buf.String(), err)
	}
	if rec["level"] != "error" || !strings.Contains(rec["msg"].(string), "not marshalable") {
		t.Errorf("fallback record = %v", rec)
	}
}

func TestLoggerFuncAndNil(t *testing.T) {
	var lines []string
	l := NewLoggerFunc(func(s string) { lines = append(lines, s) }, LevelInfo, "text")
	l.Logf("compat %d", 7)
	if len(lines) != 1 || !strings.Contains(lines[0], "compat 7") {
		t.Fatalf("lines = %v", lines)
	}
	var nilLogger *Logger
	nilLogger.Info(context.Background(), "nothing")
	nilLogger.Logf("nothing")
	if nilLogger.Enabled(LevelError) {
		t.Fatal("nil logger claims to be enabled")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo, "json")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info(context.Background(), "line", "worker", i, "j", j)
			}
		}(i)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved write produced bad JSON: %q", line)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"debug": LevelDebug, "info": LevelInfo, "": LevelInfo, "warn": LevelWarn, "warning": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

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
