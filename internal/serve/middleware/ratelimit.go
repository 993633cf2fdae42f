package middleware

import (
	"math"
	"net/http"
	"sync"
	"time"
)

// defaultMaxKeys bounds the per-key bucket map: past this many distinct
// keys, fully refilled buckets (indistinguishable from never-seen ones) are
// evicted before a new key is admitted, so a key-spraying client cannot
// grow the map without bound.
const defaultMaxKeys = 4096

// Limiter is a token-bucket rate limiter keyed by API key. Each key owns an
// independent bucket of depth burst refilled at rate tokens per second; the
// empty key is the shared fallback bucket every keyless client draws from,
// so anonymous traffic competes for one budget while keyed clients are
// isolated from each other.
//
// All methods are safe for concurrent use.
type Limiter struct {
	rate    float64 // tokens per second
	burst   float64 // bucket depth
	maxKeys int

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // injectable clock for tests
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter sustaining rate requests/second per key with
// bursts of up to burst. A non-positive burst defaults to twice the rate
// (at least 1), the conventional "one second of slack" bucket depth.
// NewLimiter panics on a non-positive rate: a limiter that admits nothing
// is a misconfiguration, not a policy (disable rate limiting by not
// installing the middleware instead).
func NewLimiter(rate float64, burst int) *Limiter {
	if rate <= 0 {
		panic("middleware: NewLimiter requires a positive rate")
	}
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, 2*rate)
	}
	return &Limiter{
		rate:    rate,
		burst:   b,
		maxKeys: defaultMaxKeys,
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// Allow reports whether one request under key fits the budget right now,
// consuming a token if so. When it does not, retryAfter is the wait until
// the bucket next frees a whole token — the value for the Retry-After
// header, so well-behaved clients converge on the sustainable rate instead
// of hammering.
func (l *Limiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= l.maxKeys {
			l.evictLocked()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+l.rate*now.Sub(b.last).Seconds())
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// evictLocked drops every bucket that has refilled completely: such a
// bucket is byte-for-byte what a brand-new key would get, so forgetting it
// changes no admission decision. Callers hold l.mu. If every bucket is
// still draining (maxKeys keys genuinely active at once), the map grows
// past the soft cap rather than penalizing a live key.
func (l *Limiter) evictLocked() {
	now := l.now()
	for k, b := range l.buckets {
		if math.Min(l.burst, b.tokens+l.rate*now.Sub(b.last).Seconds()) >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// LimitFunc wires a Limiter into a Middleware: keyFunc extracts the API key
// from the request (return "" for the shared fallback bucket) and reject
// writes the 429 response — presentation stays with the caller, so the
// serve package keeps its structured JSON error shape and its counters.
func (l *Limiter) LimitFunc(keyFunc func(*http.Request) string, reject func(w http.ResponseWriter, r *http.Request, key string, retryAfter time.Duration)) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			key := keyFunc(r)
			if ok, retryAfter := l.Allow(key); !ok {
				reject(w, r, key, retryAfter)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
