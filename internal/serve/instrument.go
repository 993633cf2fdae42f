package serve

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"corrfuse/internal/obs"
)

// reqState is the per-request slot the instrumentation middleware shares
// with the route wrappers. The Go 1.22 mux hands handlers a shallow request
// copy, so an outer middleware cannot read r.Pattern after the fact; instead
// the route wrapper writes the endpoint name into this slot, and a request
// the mux answers itself (404, 405) keeps the zero value and is accounted
// under "other".
type reqState struct {
	endpoint string
}

type reqStateKey struct{}

func stateFrom(ctx context.Context) *reqState {
	st, _ := ctx.Value(reqStateKey{}).(*reqState)
	return st
}

// statusRecorder captures the response status code so the middleware can
// account responses the handlers never see (the mux's own 404/405s included).
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.code = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if !sr.wrote {
		sr.code = http.StatusOK
		sr.wrote = true
	}
	return sr.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional interfaces (Flusher, deadline control).
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

func (sr *statusRecorder) status() int {
	if !sr.wrote {
		// Handler returned without writing: net/http sends 200.
		return http.StatusOK
	}
	return sr.code
}

// instrument is the outermost middleware: it resolves the request's trace ID
// (honoring a well-formed X-Corrfused-Trace-Id, generating one otherwise),
// echoes it on the response, attaches a Trace to the context for the stage
// spans downstream, and on completion feeds the per-endpoint latency
// histogram, the per-status response counter, the 4xx counter, the trace
// ring buffer, and — past slowRequestThreshold — the slow-request log.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if !obs.SanitizeTraceID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, id)

		st := &reqState{}
		tr := obs.NewTrace(id, "")
		ctx := obs.ContextWithTrace(r.Context(), tr)
		ctx = context.WithValue(ctx, reqStateKey{}, st)
		rec := &statusRecorder{ResponseWriter: w}

		h.ServeHTTP(rec, r.WithContext(ctx))

		endpoint := st.endpoint
		if endpoint == "" {
			endpoint = "other"
		}
		status := rec.status()
		tr.Name = endpoint
		tr.Finish(status)
		d := tr.Duration()

		//lint:ignore labelbound endpoint is a route name or "other"; bounded by the mux
		s.reqHist.With(endpoint).Observe(d)
		//lint:ignore labelbound HTTP status codes are a bounded set
		s.respCodes.With(strconv.Itoa(status)).Inc()
		if status >= 400 && status < 500 {
			s.m.badRequests.Inc()
		}
		s.traces.Record(tr)
		if d >= slowRequestThreshold {
			s.logger.Warn("slow request",
				"traceId", tr.ID,
				"endpoint", endpoint,
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"duration", d,
			)
		}
	})
}

// route wraps a handler with its endpoint's request counter and labels the
// in-flight request state for the instrumentation middleware. The counter is
// resolved once at registration, so the per-request cost is one atomic add.
// It runs OUTSIDE the admission chain (see routes), so shed requests are
// still counted, labeled and traced under their endpoint.
func (s *Server) route(endpoint string, h http.Handler) http.Handler {
	c := s.reqCounts.With(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		if st := stateFrom(r.Context()); st != nil {
			st.endpoint = endpoint
		}
		h.ServeHTTP(w, r)
	})
}

// span times one named stage of a request: it records a span on the
// request's trace and feeds the per-stage latency histogram. Call the
// returned closer when the stage completes.
func (s *Server) span(ctx context.Context, stage string) func() {
	tr := obs.TraceFrom(ctx)
	begin := time.Now()
	return func() {
		d := time.Since(begin)
		if tr != nil {
			tr.AddSpan(stage, begin.Sub(tr.Start), d)
		}
		s.stageHist.With(stage).Observe(d)
	}
}
