// Package middleware is the admission-control layer of the fusion service:
// composable HTTP middlewares that decide whether a request may enter the
// serving stack at all, and under what budget, before any handler work
// runs. The paper's premise is that fused answers stay trustworthy under
// messy, overlapping inputs; this package is the serving-side counterpart —
// answers stay available and bounded-latency under messy, overlapping
// clients.
//
// The primitives are deliberately independent of the serve package so they
// can be unit-tested (and reused) in isolation:
//
//   - Shedder: a max-in-flight gate with priority classes — reads are shed
//     before durable writes, and earlier still while the service is under
//     pressure (WAL fsync stalls, a rebuild in progress).
//   - Flight: single-flight coalescing with reference-counted
//     cancellation, so N concurrent refresh requests trigger one rebuild
//     that is itself canceled once every caller has gone away.
//   - WithTimeout: a per-endpoint deadline budget propagated through the
//     request context into ingest, WAL commit waits and rebuilds.
//
// Policy (which endpoint gets which class and budget) and
// presentation (the structured JSON error bodies, the Prometheus counters)
// stay in the serve package; this package only answers "may this request
// proceed, and for how long".
package middleware

import (
	"context"
	"net/http"
	"time"
)

// Middleware wraps an http.Handler with one admission concern.
type Middleware func(http.Handler) http.Handler

// Chain composes middlewares around h. The first middleware is the
// outermost: Chain(h, a, b) serves a(b(h)), so a sees every request first
// and b only the ones a admitted.
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] == nil {
			continue
		}
		h = mws[i](h)
	}
	return h
}

// WithTimeout bounds each request's context by d: the handler (and
// everything it propagates the context into — WAL commit waits, rebuild
// stages) observes cancellation once the budget is spent, so a slow client
// or an oversized job stops burning CPU at the next checkpoint instead of
// running to completion for an answer nobody is waiting on. A
// non-positive d disables the middleware.
func WithTimeout(d time.Duration) Middleware {
	if d <= 0 {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}
