//go:build linux

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Spans of one replayed request share Request; Parent links a step to
// the span it is accounted under (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	// Start is nanoseconds since the tracer was created; End likewise.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run is spelled.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request allocates an identifier shared by the spans of one operation.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its identifier (for children to name as
// parent) and the function that closes it and reports its duration.
func (t *tracer) begin(name string, request, parent int) (int, func() time.Duration) {
	id := 0
	if t != nil {
		t.mu.Lock()
		id = len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name})
		t.mu.Unlock()
	}
	start := time.Now()
	return id, func() time.Duration {
		end := time.Now()
		if t != nil {
			t.mu.Lock()
			t.spans[id-1].Start, t.spans[id-1].End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
			t.mu.Unlock()
		}
		return end.Sub(start)
	}
}

// timedMS runs fn inside a root span of a fresh request and returns its
// duration in milliseconds.
func (t *tracer) timedMS(name string, fn func()) float64 {
	_, end := t.begin(name, t.request(), 0)
	fn()
	return millis(end())
}

// flush writes the spans to bench/out/trace-<workload>.json.
func (t *tracer) flush(outDir, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), raw, 0o644)
}
