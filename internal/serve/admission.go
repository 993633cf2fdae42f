package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"corrfuse/internal/serve/middleware"
)

// admit builds the admission-control chain for one /v1 endpoint, innermost
// handler last: load shed → deadline → h. Order matters: a shed request
// never starts a deadline it would not use. Disabled knobs contribute nil
// middlewares, which Chain skips, so the fully disabled configuration
// serves h bare — zero overhead, byte-identical behavior to the
// pre-admission service.
//
// The instrumentation middleware sits outside this chain (see routes), so
// 503s are traced, latency-sampled and status-counted exactly like served
// requests.
func (s *Server) admit(endpoint string, class middleware.Class, h http.Handler) http.Handler {
	var shed, deadline middleware.Middleware
	if s.shedder != nil {
		shed = s.shedder.ShedFunc(class, func(w http.ResponseWriter, r *http.Request) {
			s.m.shed.With(endpoint).Inc()
			s.rejectRetryable(w, http.StatusServiceUnavailable, time.Second,
				"overloaded: too many requests in flight, %s shed", endpoint)
		})
	}
	if s.cfg.RequestTimeout > 0 {
		budget := s.cfg.RequestTimeout
		if endpoint == "refuse" {
			budget *= refuseTimeoutFactor
		}
		deadline = middleware.WithTimeout(budget)
	}
	return middleware.Chain(h, shed, deadline)
}

// rejectRetryable writes a structured admission refusal: the Retry-After
// header (whole seconds, at least 1 — the header does not admit fractions)
// plus a JSON body carrying the exact fractional wait, so both naive and
// careful clients can back off correctly.
func (s *Server) rejectRetryable(w http.ResponseWriter, code int, retryAfter time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.FormatInt(retryHeaderSeconds(retryAfter), 10))
	s.writeJSON(w, code, map[string]any{
		"error":             fmt.Sprintf(format, args...),
		"retryAfterSeconds": retrySeconds(retryAfter),
	})
}

// retryHeaderSeconds rounds a wait up to whole seconds for the Retry-After
// header, never below 1 (a 0 would invite an immediate, doomed retry).
func retryHeaderSeconds(d time.Duration) int64 {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retrySeconds is the fractional wait for the JSON body, rounded to
// milliseconds so the error is stable to read and to assert on.
func retrySeconds(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return math.Round(d.Seconds()*1000) / 1000
}
