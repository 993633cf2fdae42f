// Read-path query benchmarks on the 52k-triple store-scale dataset
// (shardBenchDataset): the indexed serving path against the pre-index
// baseline, for single-triple and 64-triple bulk requests, plus indexed
// subject listings (there is no other listing path to compare against).
//
// The Indexed benchmarks drive the real HTTP serving stack (mux, JSON
// decode, frozen-index reads, JSON encode) through ServeHTTP. The Baseline
// benchmarks reconstruct the pre-index request cost at the same altitude —
// JSON decode, model recompute through the fusion algorithm (an unfrozen
// engine, exactly what every request paid before the read index), response
// assembly, JSON encode — without the HTTP layer, which only biases the
// comparison against the indexed path.
//
// Every benchmark reports a triples/s throughput metric; the acceptance
// ratio is BenchmarkQueryBulk64Indexed vs BenchmarkQuerySingleBaseline.
// CI uploads the results as BENCH_query.json.
package corrfuse_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"corrfuse"
	"corrfuse/internal/serve"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// queryBenchState caches the trained server and query workload across the
// BenchmarkQuery* family (training the 52k-triple model once).
type queryBenchState struct {
	handler http.Handler
	// handlerAdmission serves the same data with the full admission chain
	// enabled at thresholds the benchmark can never trip: the delta
	// against handler is the per-request admission overhead.
	handlerAdmission http.Handler
	baseline         corrfuse.Model // unfrozen: scores recompute through the algorithm
	triples          []triple.Triple
}

// hubSubject is a deliberately wide subject (hubEntries triples) added on
// top of the 52k entity triples, so the subject benchmarks measure listing
// work rather than per-request fixed costs.
const (
	hubSubject = "hub-entity"
	hubEntries = 512
)

var queryBenchCache *queryBenchState

func queryBench(b *testing.B) *queryBenchState {
	b.Helper()
	if queryBenchCache != nil {
		return queryBenchCache
	}
	d := shardBenchDataset(b)
	opts := shardBenchOpts()
	opts.Shards = 8
	opts.Parallelism = 8

	st := store.FromDataset(d)
	for i := 0; i < hubEntries; i++ {
		st.Put(store.Entry{
			Triple:  triple.Triple{Subject: hubSubject, Predicate: fmt.Sprintf("ph%d", i), Object: "v"},
			Sources: []string{fmt.Sprintf("indep-%d", i%48)},
		})
	}
	srv, err := serve.New(st, serve.Config{Options: opts, PenalizeSilence: true})
	if err != nil {
		b.Fatal(err)
	}
	srvAdmission, err := serve.New(st, serve.Config{
		Options: opts, PenalizeSilence: true,
		// Generous enough that no benchmark request is ever refused: the
		// measurement is the chain's bookkeeping, not its rejections.
		RateLimit:      1e9,
		RateBurst:      1 << 30,
		RequestTimeout: time.Hour,
		MaxInFlight:    1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}

	// The unfrozen engine never fuses, so its Score/Probability run the
	// correlation-aware algorithm per call — the pre-index read path. It is
	// trained over the same data the server captured.
	d2 := st.Dataset()
	baseline, err := corrfuse.NewModel(d2, opts)
	if err != nil {
		b.Fatal(err)
	}

	qs := &queryBenchState{
		handler:          srv.Handler(),
		handlerAdmission: srvAdmission.Handler(),
		baseline:         baseline,
	}
	for _, id := range providedIDs(d2) {
		qs.triples = append(qs.triples, d2.Triple(id))
	}
	queryBenchCache = qs
	return qs
}

// postScore drives one /v1/score request through the serving stack.
func postScore(b *testing.B, h http.Handler, body []byte) {
	b.Helper()
	req := httptest.NewRequest("POST", "/v1/score", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("/v1/score: %d: %s", w.Code, w.Body.String())
	}
}

// scoreBodies pre-marshals rotating request bodies of n triples each.
func scoreBodies(b *testing.B, qs *queryBenchState, n int) [][]byte {
	b.Helper()
	const rotation = 64
	bodies := make([][]byte, rotation)
	for i := range bodies {
		var req serve.ScoreRequest
		for j := 0; j < n; j++ {
			req.Triples = append(req.Triples, qs.triples[(i*n+j)%len(qs.triples)])
		}
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}
	return bodies
}

func reportTriplesPerSec(b *testing.B, perOp int) {
	b.ReportMetric(float64(b.N*perOp)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkQuerySingleIndexed: one triple per request through the full
// serving stack, answered from the frozen index.
func BenchmarkQuerySingleIndexed(b *testing.B) {
	qs := queryBench(b)
	bodies := scoreBodies(b, qs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postScore(b, qs.handler, bodies[i%len(bodies)])
	}
	reportTriplesPerSec(b, 1)
}

// BenchmarkQuerySingleBaseline: the pre-index cost of the same request —
// decode, recompute the probability through the correlation-aware
// algorithm, assemble and encode the response.
func BenchmarkQuerySingleBaseline(b *testing.B) {
	qs := queryBench(b)
	bodies := scoreBodies(b, qs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselineScore(b, qs, bodies[i%len(bodies)])
	}
	reportTriplesPerSec(b, 1)
}

// BenchmarkQueryBulk64Indexed is the acceptance benchmark: 64-triple bulk
// requests through the full serving stack, answered from the frozen index.
// Its triples/s must be ≥ 5× BenchmarkQuerySingleBaseline's.
func BenchmarkQueryBulk64Indexed(b *testing.B) {
	qs := queryBench(b)
	bodies := scoreBodies(b, qs, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postScore(b, qs.handler, bodies[i%len(bodies)])
	}
	reportTriplesPerSec(b, 64)
}

// BenchmarkQueryBulk64IndexedAdmission re-runs the acceptance benchmark
// with the full admission chain enabled (rate limit, shed gate, deadline)
// at thresholds it never trips: the delta against
// BenchmarkQueryBulk64Indexed is the admission overhead on the read path —
// budgeted at ≤ 5%. CI records both in BENCH_admission.json.
func BenchmarkQueryBulk64IndexedAdmission(b *testing.B) {
	qs := queryBench(b)
	bodies := scoreBodies(b, qs, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postScore(b, qs.handlerAdmission, bodies[i%len(bodies)])
	}
	reportTriplesPerSec(b, 64)
}

// BenchmarkQueryBulk64Baseline: the same bulk batch recomputed through the
// algorithm per request (the pre-index bulk path).
func BenchmarkQueryBulk64Baseline(b *testing.B) {
	qs := queryBench(b)
	bodies := scoreBodies(b, qs, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselineScore(b, qs, bodies[i%len(bodies)])
	}
	reportTriplesPerSec(b, 64)
}

// baselineScore replays the pre-index /v1/score work: decode the request,
// resolve IDs, recompute probabilities through the unfrozen model, assemble
// results, encode the response.
func baselineScore(b *testing.B, qs *queryBenchState, body []byte) {
	b.Helper()
	var req serve.ScoreRequest
	if err := json.Unmarshal(body, &req); err != nil {
		b.Fatal(err)
	}
	d := qs.baseline.Dataset()
	results := make([]serve.ScoreResult, len(req.Triples))
	var idxs []int
	var ids []corrfuse.TripleID
	for i, t := range req.Triples {
		results[i] = serve.ScoreResult{Triple: t, Basis: "unknown"}
		if id, ok := d.TripleID(t); ok && len(d.Providers(id)) > 0 {
			idxs = append(idxs, i)
			ids = append(ids, id)
		}
	}
	for j, p := range qs.baseline.Score(ids) {
		results[idxs[j]].Probability = p
		results[idxs[j]].Basis = "snapshot"
	}
	enc := json.NewEncoder(io.Discard)
	if err := enc.Encode(map[string]any{"results": results, "snapshotSeq": 1}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQuerySubjectIndexed: wide-subject listings through the full
// serving stack — pre-ranked slices straight out of the frozen index, no
// store scan, no per-request sort.
func BenchmarkQuerySubjectIndexed(b *testing.B) {
	qs := queryBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/v1/subject/"+hubSubject, nil)
		w := httptest.NewRecorder()
		qs.handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("/v1/subject: %d", w.Code)
		}
	}
	reportTriplesPerSec(b, hubEntries)
}
