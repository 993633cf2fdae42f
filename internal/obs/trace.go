package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying a request's trace ID: honored on
// the way in (subject to sanitization) and echoed on every response.
const TraceHeader = "X-Corrfused-Trace-Id"

// maxSpans caps the spans one trace retains; further spans are counted but
// dropped, so a 10k-observation batch cannot balloon its trace.
const maxSpans = 128

// maxTraceIDLen bounds an honored caller-supplied trace ID.
const maxTraceIDLen = 128

// traceSeed is a per-process random prefix; trace IDs are seed-counter so
// generation is one atomic add, not a syscall per request.
var (
	traceSeed    = func() string { var b [8]byte; rand.Read(b[:]); return hex.EncodeToString(b[:]) }()
	traceCounter atomic.Uint64
)

// NewTraceID returns a process-unique trace ID: an 8-byte random process
// prefix plus a monotone counter.
func NewTraceID() string {
	var c [8]byte
	binary.BigEndian.PutUint64(c[:], traceCounter.Add(1))
	return traceSeed + hex.EncodeToString(c[:])
}

// SanitizeTraceID validates a caller-supplied trace ID: printable ASCII, no
// spaces, at most maxTraceIDLen bytes. It reports whether the ID is usable
// as-is; callers should generate a fresh one otherwise.
func SanitizeTraceID(id string) bool {
	if id == "" || len(id) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}

// Span is one timed stage within a trace, offset-relative to the trace
// start so a JSON dump reads as a waterfall.
type Span struct {
	Name     string        `json:"name"`
	Offset   time.Duration `json:"-"`
	Duration time.Duration `json:"-"`

	// Serialized forms (microseconds) — stable JSON for /debug/traces.
	OffsetUs   int64 `json:"offsetUs"`
	DurationUs int64 `json:"durationUs"`
}

// Trace is one request's (or one refresh cycle's) timing record. A trace is
// owned by the goroutine serving the request; AddSpan may be called
// concurrently (e.g. by parallel stages) and locks briefly.
type Trace struct {
	ID    string
	Name  string // endpoint, or "refresh" for rebuild cycles
	Start time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int

	// set by Finish
	total  time.Duration
	status int
}

// NewTrace starts a trace now under the given ID and name.
func NewTrace(id, name string) *Trace {
	return &Trace{ID: id, Name: name, Start: time.Now()}
}

// AddSpan records an already-measured stage. Nil-safe.
func (t *Trace) AddSpan(name string, offset, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{Name: name, Offset: offset, Duration: d})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Finish stamps the trace's total duration and response status.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total = time.Since(t.Start)
	t.status = status
	t.mu.Unlock()
}

// Duration returns the finished trace's total duration (0 before Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// TraceSnapshot is the immutable JSON form of a finished trace.
type TraceSnapshot struct {
	ID           string    `json:"id"`
	Name         string    `json:"name"`
	Start        time.Time `json:"start"`
	DurationUs   int64     `json:"durationUs"`
	Status       int       `json:"status,omitempty"`
	Spans        []Span    `json:"spans"`
	DroppedSpans int       `json:"droppedSpans,omitempty"`
}

func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, len(t.spans))
	for i, sp := range t.spans {
		sp.OffsetUs = sp.Offset.Microseconds()
		sp.DurationUs = sp.Duration.Microseconds()
		spans[i] = sp
	}
	return TraceSnapshot{
		ID: t.ID, Name: t.Name, Start: t.Start,
		DurationUs: t.total.Microseconds(), Status: t.status,
		Spans: spans, DroppedSpans: t.dropped,
	}
}

type traceKey struct{}

// ContextWithTrace attaches a trace to a context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil. All Trace methods are
// nil-safe, so callers use the result unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// TraceRecorder keeps the most recent finished traces at or above a
// duration threshold in a fixed-size ring. With Threshold 0 every finished
// trace is kept (the default: the acceptance path needs any traced request
// retrievable); operators raise the threshold to keep only slow ones.
type TraceRecorder struct {
	mu        sync.Mutex
	ring      []TraceSnapshot
	next      int
	total     uint64 // traces recorded (not just retained)
	threshold time.Duration
}

// NewTraceRecorder builds a recorder retaining up to n traces of duration
// ≥ threshold. n < 1 defaults to 256.
func NewTraceRecorder(n int, threshold time.Duration) *TraceRecorder {
	if n < 1 {
		n = 256
	}
	return &TraceRecorder{ring: make([]TraceSnapshot, 0, n), threshold: threshold}
}

// Record retains a finished trace if it meets the threshold. Nil-safe on
// both receiver and trace.
func (r *TraceRecorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	d := t.Duration()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if d < r.threshold {
		return
	}
	snap := t.snapshot()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, snap)
		r.next = len(r.ring) % cap(r.ring)
		return
	}
	r.ring[r.next] = snap
	r.next = (r.next + 1) % len(r.ring)
}

// Snapshots returns the retained traces, most recent first.
func (r *TraceRecorder) Snapshots() []TraceSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(r.ring))
	for i := 1; i <= len(r.ring); i++ {
		out = append(out, r.ring[(r.next-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Total returns the number of traces ever offered to the recorder.
func (r *TraceRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Handler serves the recorder as JSON: {"thresholdMs":…,"recorded":…,
// "traces":[…]} with traces most recent first. An optional ?min_ms=N query
// filters to traces at least that slow.
func (r *TraceRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		minUs := int64(0)
		if v := req.URL.Query().Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, `{"error":"min_ms must be a number"}`, http.StatusBadRequest)
				return
			}
			minUs = int64(ms * 1000)
		}
		all := r.Snapshots()
		traces := all[:0:0]
		for _, t := range all {
			if t.DurationUs >= minUs {
				traces = append(traces, t)
			}
		}
		if traces == nil {
			traces = []TraceSnapshot{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		if err := enc.Encode(map[string]any{
			"thresholdMs": float64(r.threshold.Microseconds()) / 1000,
			"recorded":    r.Total(),
			"retained":    len(all),
			"traces":      traces,
		}); err != nil {
			// Mid-write failure (usually the debugging client went
			// away); too late to change the status, so count it.
			noteEncodeFailure()
		}
	})
}
