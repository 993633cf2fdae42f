package codec

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"corrfuse/internal/index"
	"corrfuse/internal/triple"
)

// marshalNoHTML reproduces the serving layer's legacy encoding exactly:
// json.Encoder with EscapeHTML disabled, trailing newline included.
func marshalNoHTML(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

var trickyStrings = []string{
	"",
	"plain",
	"with \"quotes\" and \\backslashes\\",
	"tabs\tnewlines\nreturns\r",
	"backspace\bformfeed\f",
	"control \x00\x01\x1f bytes",
	"html <b>&amp;</b> stays raw",
	"unicode: héllo wörld — ünïcödé",
	"emoji: \U0001F600\U0001F680",
	"line separators: \u2028 and \u2029",
	"invalid utf8: \xff\xfe partial \xc3",
	"lone continuation \x80 byte",
	"nul\x00nul",
	"ascii then multibyte \xe2\x82",
	strings.Repeat("long ", 100),
}

func TestAppendStringMatchesJSON(t *testing.T) {
	for _, s := range trickyStrings {
		want := marshalNoHTML(t, s)
		want = want[:len(want)-1] // strip Encoder's newline
		got := AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
		want, _ = json.Marshal(s)
		if got := AppendStringHTML(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendStringHTML(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.25, 1.0 / 3.0, 0.1 + 0.2,
		1e-6, 9.999999e-7, 1e-7, 1e21, 1e21 - 65537, 1e20, -1e-9,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.9999999999999999,
		123456789.123456789, 5e-324, 2.2250738585072014e-308,
	}
	for _, f := range vals {
		want := marshalNoHTML(t, f)
		want = want[:len(want)-1]
		got := AppendFloat(nil, f)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

func TestAppendFloatRandomMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		want := marshalNoHTML(t, f)
		want = want[:len(want)-1]
		got := AppendFloat(nil, f)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

func TestAppendFloatNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(AppendFloat(nil, f)); got != "null" {
			t.Errorf("AppendFloat(%v) = %q, want null", f, got)
		}
	}
}

// parseAny decodes JSON into a generic tree for value-level comparison
// (the hand-rolled encoders fix field order; the legacy map-based bodies
// serialized keys alphabetically).
func parseAny(t *testing.T, data []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, data)
	}
	return v
}

func sampleScoreResults() []ScoreResult {
	tr := func(s string) triple.Triple {
		return triple.Triple{Subject: s, Predicate: "born_in \"x\"", Object: "city\n" + s}
	}
	yes, no := true, false
	return []ScoreResult{
		{Triple: tr("a"), Probability: 0.87234, Basis: "snapshot", Accepted: &yes},
		{Triple: tr("b"), Probability: 1e-9, Basis: "snapshot", Accepted: &no},
		{Triple: tr("c\xffbad"), Probability: 0.5, Basis: "live"},
		{Triple: tr("d"), Basis: "unknown"},
	}
}

func TestAppendScoreResponseMatchesJSON(t *testing.T) {
	results := sampleScoreResults()
	legacy := marshalNoHTML(t, map[string]any{
		"results":         results,
		"snapshotSeq":     uint64(7),
		"snapshotVersion": uint64(12),
		"indexVersion":    uint64(12),
	})
	got := AppendScoreResponse(nil, results, 7, 12, 12)
	if got[len(got)-1] != '\n' {
		t.Fatalf("missing trailing newline")
	}
	if !reflect.DeepEqual(parseAny(t, got), parseAny(t, legacy)) {
		t.Errorf("score response mismatch:\n got %s\nwant %s", got, legacy)
	}
	if !reflect.DeepEqual(parseAny(t, AppendScoreResponse(nil, nil, 0, 0, 0)),
		parseAny(t, marshalNoHTML(t, map[string]any{
			"results": []ScoreResult{}, "snapshotSeq": 0, "snapshotVersion": 0, "indexVersion": 0,
		}))) {
		t.Errorf("empty score response mismatch")
	}
}

func TestAppendObserveResponseMatchesJSON(t *testing.T) {
	results := []ObserveResult{
		{Triple: triple.Triple{Subject: "s", Predicate: "p", Object: "o"}, Probability: 0.75, Live: true},
		{Triple: triple.Triple{Subject: "s2", Predicate: "p", Object: "o"}, Probability: 0.5, PendingSource: true},
	}
	for _, withWAL := range []bool{true, false} {
		legacyMap := map[string]any{"results": results, "snapshotSeq": uint64(3)}
		if withWAL {
			legacyMap["walSeq"] = uint64(99)
		}
		legacy := marshalNoHTML(t, legacyMap)
		got := AppendObserveResponse(nil, results, 3, 99, withWAL)
		if !reflect.DeepEqual(parseAny(t, got), parseAny(t, legacy)) {
			t.Errorf("observe response (wal=%v) mismatch:\n got %s\nwant %s", withWAL, got, legacy)
		}
	}
}

func TestAppendEntriesResponseMatchesJSON(t *testing.T) {
	entries := []*index.Entry{
		{Triple: triple.Triple{Subject: "s", Predicate: "p", Object: "o"},
			Sources: []string{"src\"1", "src2"}, Label: "true", Probability: 0.99, Accepted: true},
		{Triple: triple.Triple{Subject: "s", Predicate: "p", Object: "o2"},
			Probability: 0.01, Accepted: false},
	}
	legacy := marshalNoHTML(t, map[string]any{
		"results":         entries,
		"snapshotSeq":     uint64(4),
		"snapshotVersion": uint64(9),
		"indexVersion":    uint64(9),
	})
	got := AppendEntriesResponse(nil, entries, 4, 9, 9)
	if !reflect.DeepEqual(parseAny(t, got), parseAny(t, legacy)) {
		t.Errorf("entries response mismatch:\n got %s\nwant %s", got, legacy)
	}
	// nil entries must serve as "results": [] (the serving layer's
	// contract), matching the legacy empty-slice body.
	legacyEmpty := marshalNoHTML(t, map[string]any{
		"results": []*index.Entry{}, "snapshotSeq": 0, "snapshotVersion": 0, "indexVersion": 0,
	})
	if !reflect.DeepEqual(parseAny(t, AppendEntriesResponse(nil, nil, 0, 0, 0)), parseAny(t, legacyEmpty)) {
		t.Errorf("empty entries response mismatch")
	}
}

// TestEncodeZeroAlloc is the gate behind deleting the hotpathalloc
// suppressions: once the response buffer has warmed up, encoding a full
// score/observe/listing response performs zero heap allocations.
func TestEncodeZeroAlloc(t *testing.T) {
	results := sampleScoreResults()
	obsResults := []ObserveResult{
		{Triple: triple.Triple{Subject: "s", Predicate: "p", Object: "o"}, Probability: 0.75, Live: true},
	}
	entries := []*index.Entry{
		{Triple: triple.Triple{Subject: "s", Predicate: "p", Object: "o"},
			Sources: []string{"a", "b"}, Label: "true", Probability: 0.25, Accepted: true},
	}
	buf := make([]byte, 0, 1<<16)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendScoreResponse(buf[:0], results, 7, 12, 12)
	}); n != 0 {
		t.Errorf("AppendScoreResponse allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendObserveResponse(buf[:0], obsResults, 3, 99, true)
	}); n != 0 {
		t.Errorf("AppendObserveResponse allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendEntriesResponse(buf[:0], entries, 4, 9, 9)
	}); n != 0 {
		t.Errorf("AppendEntriesResponse allocates %v times per op, want 0", n)
	}
}

// BenchmarkAppendScoreResponse is the CI allocation gate on the codec
// encode path: the bench job greps its -benchmem output and fails unless
// it reports exactly 0 allocs/op (the machine-checked form of the
// deleted handlers.go hotpathalloc suppressions).
func BenchmarkAppendScoreResponse(b *testing.B) {
	results := sampleScoreResults()
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendScoreResponse(buf[:0], results, 7, 12, 12)
	}
	_ = buf
}

func TestBufferPoolRoundTrip(t *testing.T) {
	b := GetBuffer()
	if len(b.B) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(b.B))
	}
	b.B = append(b.B, "hello"...)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(b2.B) != 0 {
		t.Fatalf("reused buffer not reset: %q", b2.B)
	}
	PutBuffer(b2)

	// Oversized buffers are dropped, not pooled.
	big := &Buffer{B: make([]byte, 0, maxPooledBuffer+1)}
	PutBuffer(big) // must not panic; nothing observable beyond that
}

func TestBufferReadFrom(t *testing.T) {
	payload := strings.Repeat("0123456789", 1000)
	var b Buffer
	n, err := b.ReadFrom(strings.NewReader(payload))
	if err != nil || n != int64(len(payload)) || string(b.B) != payload {
		t.Fatalf("ReadFrom: n=%d err=%v match=%v", n, err, string(b.B) == payload)
	}
	// Reuse keeps capacity and appends after existing content.
	b.Reset()
	if _, err := b.ReadFrom(strings.NewReader("abc")); err != nil || string(b.B) != "abc" {
		t.Fatalf("ReadFrom after reset: %q err=%v", b.B, err)
	}
}

func TestBufferWrite(t *testing.T) {
	var b Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if string(b.B) != "{\"x\":1}\n" {
		t.Fatalf("Buffer as io.Writer: %q", b.B)
	}
}
