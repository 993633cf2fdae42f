package obs

import (
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets: log-spaced from 100µs to 10s
// in a 1-2.5-5 progression, wide enough to hold both O(µs) index reads and
// fsync-bound commits without resizing.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FineBuckets start at 10µs for stages that complete well under a
// millisecond (frozen-index lookups, in-memory WAL appends).
var FineBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// Observation is wait-free: one atomic add into the bucket counter plus one
// for the nanosecond sum — no locks on the hot path, so request handlers can
// observe without contending with scrapes.
type Histogram struct {
	// upper are the inclusive bucket upper bounds in seconds, ascending; an
	// implicit +Inf bucket follows.
	upper []float64
	// counts[i] is the number of observations ≤ upper[i] exclusively in
	// bucket i (NOT cumulative; the exposition writer accumulates). The
	// final element is the +Inf bucket.
	counts []atomic.Uint64
	// sumNanos accumulates the observed durations in nanoseconds: integer
	// adds are atomic without a CAS loop, and ~292 years of summed latency
	// fit in int64 before overflow.
	sumNanos atomic.Int64
}

// NewHistogram builds a histogram over the given ascending bucket bounds
// (seconds). Nil or empty buckets fall back to DefBuckets.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	h := &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	// Binary search is overkill for ≤ ~16 buckets; a linear scan stays in
	// one cache line of float64s.
	i := 0
	for i < len(h.upper) && s > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Sum returns the sum of all observed durations in seconds.
func (h *Histogram) Sum() float64 {
	return time.Duration(h.sumNanos.Load()).Seconds()
}

// snapshot returns cumulative bucket counts aligned with upper (+Inf last),
// plus count and sum. Reads are atomic per counter; a scrape racing
// observations may see a bucket updated before the sum — the linter and
// Prometheus both tolerate that skew, and it never decreases.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	// Derive count from the same pass so le="+Inf" always equals the
	// reported count even mid-scrape.
	return cum, cum[len(cum)-1], h.Sum()
}
