// Package obs is the service's zero-dependency observability core: a
// Prometheus-text metric registry (counters, gauges, fixed-bucket latency
// histograms), lightweight request tracing with a ring buffer of recent
// traces, and build metadata injected at link time (logging is log/slog's).
// Everything is stdlib-only and safe for concurrent use; the hot-path
// primitives (counter adds, histogram observations, span records) are
// lock-free or near-free so instrumentation can stay on in production.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Sample is one exposition line's variable part: a preformatted label set
// (`{code="404"}`, or "" for an unlabeled metric) and its value.
type Sample struct {
	Labels string
	Value  float64
}

// Label formats one label pair into a Sample-ready label set. strconv.Quote
// covers the exposition format's required escapes (backslash, quote,
// newline); our label values are endpoint names, status codes and version
// strings, which need nothing more exotic.
func Label(name, value string) string {
	return "{" + name + "=" + strconv.Quote(value) + "}"
}

// collector is one registered metric family: a HELP/TYPE header plus its
// sample lines.
type collector interface {
	meta() (name, help, typ string)
	// write emits the family's sample lines. Returning false suppresses
	// the whole family, header included (e.g. WAL gauges without a WAL).
	write(w io.Writer) bool
}

// Registry is an ordered collection of metric families that renders itself
// in the Prometheus text exposition format: HELP and TYPE are declared once
// per family at registration, and WriteTo emits every family in one loop —
// no hand-maintained header blocks. Registration is not thread-safe
// (register everything at construction); scraping concurrent with metric
// updates is.
type Registry struct {
	families []collector
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(name string, c collector) {
	if r.names[name] {
		panic("obs: duplicate metric family " + name)
	}
	r.names[name] = true
	r.families = append(r.families, c)
}

// WriteTo renders every family in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	for _, f := range r.families {
		var buf strings.Builder
		if !f.write(&buf) {
			continue
		}
		name, help, typ := f.meta()
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		io.WriteString(cw, buf.String())
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- counters ----

type counterFamily struct {
	name, help string
	c          *Counter
}

func (f *counterFamily) meta() (string, string, string) { return f.name, f.help, "counter" }
func (f *counterFamily) write(w io.Writer) bool {
	fmt.Fprintf(w, "%s %d\n", f.name, f.c.Load())
	return true
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, &counterFamily{name: name, help: help, c: c})
	return c
}

// CounterVec is a family of counters keyed by one label's value, created on
// demand: unseen label values allocate their counter on first With.
type CounterVec struct {
	name, label string
	mu          sync.RWMutex
	children    map[string]*Counter
}

// With returns the counter for the given label value, creating it if new.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c == nil {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

type counterVecFamily struct {
	help string
	v    *CounterVec
}

func (f *counterVecFamily) meta() (string, string, string) { return f.v.name, f.help, "counter" }
func (f *counterVecFamily) write(w io.Writer) bool {
	f.v.mu.RLock()
	keys := make([]string, 0, len(f.v.children))
	for k := range f.v.children {
		keys = append(keys, k)
	}
	f.v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		//lint:ignore labelbound exposition loop; k ranges over already-created children, no new series
		fmt.Fprintf(w, "%s%s %d\n", f.v.name, Label(f.v.label, k), f.v.With(k).Load())
	}
	return true
}

// CounterVec registers a one-label counter family. A family with no
// children yet emits its header and no samples.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, label: label, children: make(map[string]*Counter)}
	r.register(name, &counterVecFamily{help: help, v: v})
	return v
}

// ---- gauges ----

type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (f *gaugeFunc) meta() (string, string, string) { return f.name, f.help, "gauge" }
func (f *gaugeFunc) write(w io.Writer) bool {
	fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
	return true
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFunc{name: name, help: help, fn: fn})
}

type sampleFunc struct {
	name, help, typ string
	fn              func() []Sample
}

func (f *sampleFunc) meta() (string, string, string) { return f.name, f.help, f.typ }
func (f *sampleFunc) write(w io.Writer) bool {
	samples := f.fn()
	if samples == nil {
		return false
	}
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.Labels, formatValue(s.Value))
	}
	return true
}

// SampleFunc registers a family whose (possibly labeled) samples are
// computed at scrape time. typ is "gauge" or "counter". Returning nil
// suppresses the family for that scrape (e.g. WAL metrics without a WAL);
// returning an empty non-nil slice emits the header with no samples.
func (r *Registry) SampleFunc(name, help, typ string, fn func() []Sample) {
	r.register(name, &sampleFunc{name: name, help: help, typ: typ, fn: fn})
}

// ---- histograms ----

type histogramFamily struct {
	name, help string
	h          *Histogram
}

func (f *histogramFamily) meta() (string, string, string) { return f.name, f.help, "histogram" }
func (f *histogramFamily) write(w io.Writer) bool {
	writeHistogram(w, f.name, "", f.h)
	return true
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	cum, count, sum := h.snapshot()
	for i, ub := range h.upper {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatValue(ub)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// bucketLabels merges a family's constant label set with the le label.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}

// Histogram registers and returns an unlabeled latency histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := NewHistogram(buckets)
	r.register(name, &histogramFamily{name: name, help: help, h: h})
	return h
}

// HistogramVec is a family of histograms keyed by one label's value.
// Children share the family's bucket layout and are created on first With.
type HistogramVec struct {
	name, label string
	buckets     []float64
	mu          sync.RWMutex
	children    map[string]*Histogram
}

// With returns the histogram for the given label value, creating it if new.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[value]; h == nil {
		h = NewHistogram(v.buckets)
		v.children[value] = h
	}
	return h
}

type histogramVecFamily struct {
	help string
	v    *HistogramVec
}

func (f *histogramVecFamily) meta() (string, string, string) { return f.v.name, f.help, "histogram" }
func (f *histogramVecFamily) write(w io.Writer) bool {
	f.v.mu.RLock()
	keys := make([]string, 0, len(f.v.children))
	for k := range f.v.children {
		keys = append(keys, k)
	}
	f.v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		//lint:ignore labelbound exposition loop; k ranges over already-created children, no new series
		writeHistogram(w, f.v.name, Label(f.v.label, k), f.v.With(k))
	}
	return true
}

// HistogramVec registers a one-label histogram family with shared buckets.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	v := &HistogramVec{name: name, label: label, buckets: append([]float64(nil), buckets...), children: make(map[string]*Histogram)}
	r.register(name, &histogramVecFamily{help: help, v: v})
	return v
}
