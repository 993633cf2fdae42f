//go:build linux

package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"testing"

	"corrfuse/internal/codec"
	"corrfuse/internal/index"
	"corrfuse/internal/serve"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// replayBody is a request body that can be rewound, so that one
// *http.Request serves every replay without the harness allocating.
type replayBody struct {
	b   []byte
	off int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.b) {
		return 0, io.EOF
	}
	n := copy(p, b.b[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// sinkWriter is the cheapest http.ResponseWriter: it counts bytes.
type sinkWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *sinkWriter) Header() http.Header  { return w.h }
func (w *sinkWriter) WriteHeader(code int) { w.status = code }
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// inProcess builds the serving stack in this process the way cmd/fused
// configures it for the serving workloads (no WAL, no persist).
func inProcess(st *store.Store) (*serve.Server, error) {
	d := st.Dataset()
	return serve.New(st, serve.Config{
		Options:         servedOptions(d),
		PenalizeSilence: true,
		PartialRebuild:  true,
		TraceBufferSize: 256,
	})
}

// handlerCall replays one request against an in-process handler.
type handlerCall struct {
	h    http.Handler
	req  *http.Request
	body replayBody
	w    sinkWriter
}

func newHandlerCall(h http.Handler, method, path string, body []byte) (*handlerCall, error) {
	hc := &handlerCall{h: h, w: sinkWriter{h: make(http.Header)}}
	hc.body.b = body
	req, err := http.NewRequest(method, path, &hc.body)
	if err != nil {
		return nil, err
	}
	req.ContentLength = int64(len(body))
	hc.req = req
	return hc, nil
}

func (hc *handlerCall) serve() error {
	hc.body.off = 0
	hc.w.status = 0
	hc.h.ServeHTTP(&hc.w, hc.req)
	if hc.w.status != http.StatusOK {
		return fmt.Errorf("in-process %s %s: status %d", hc.req.Method, hc.req.URL.Path, hc.w.status)
	}
	return nil
}

// allocsAndBytes reports allocations and bytes allocated per call of fn.
func allocsAndBytes(runs int, fn func()) (allocs, bytes float64) {
	allocs = testing.AllocsPerRun(runs, fn)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// trimmedMeans reports, for each named series of per-request microseconds,
// the mean over the requests whose first series (the parent span) is not
// among the slowest 1 % — one request set for every series, so the parts
// still add up to the whole.
func trimmedMeans(series ...[]float64) []sample {
	parent := series[0]
	order := make([]int, len(parent))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return parent[order[a]] < parent[order[b]] })
	keep := order[:len(order)-len(order)/100]
	out := make([]sample, len(series))
	for si, s := range series {
		vals := make([]float64, len(keep))
		for i, k := range keep {
			vals[i] = s[k]
		}
		out[si] = summarize(vals)
		out[si].Value = mean(vals)
	}
	return out
}

const replayRequests = 2000

// readLayers replays the read mix in process: each score request goes
// through the real handler inside one span, then through the handler's own
// steps — decode, resolve, index lookup, encode — each inside a child span,
// so that what the handler spends outside those layers (mux, admission,
// instrumentation, buffer handling) is its self time. It returns the
// handler's time per score request in µs.
func (r *run) readLayers(sv *serving, pools [numOpKinds][]op) (float64, error) {
	srv, err := inProcess(sv.st)
	if err != nil {
		return 0, err
	}
	h := srv.Handler()
	d, idx := sv.oracle.d, sv.oracle.idx

	scores := pools[opScore]
	calls := make([]*handlerCall, len(scores))
	for i := range scores {
		if calls[i], err = newHandlerCall(h, "POST", "/v1/score", scores[i].body); err != nil {
			return 0, err
		}
	}
	var (
		sreq    codec.ScoreRequest
		results []codec.ScoreResult
		ids     []triple.TripleID
		buf     []byte
		yes, no = true, false

		handler, decode, resolve, lookup, encode []float64
	)
	for i := 0; i < replayRequests+replayRequests/10; i++ {
		k := i % len(scores)
		rid := r.tr.request()
		hid, end := r.tr.begin("serve.score_handler", rid, 0)
		if err := calls[k].serve(); err != nil {
			return 0, err
		}
		hd := end()

		_, end = r.tr.begin("codec.decode_score", rid, hid)
		sreq.Triples = sreq.Triples[:0]
		if err := codec.DecodeScoreRequest(scores[k].body, &sreq); err != nil {
			return 0, err
		}
		dd := end()

		_, end = r.tr.begin("triple.resolve", rid, hid)
		ids = ids[:0]
		for _, t := range sreq.Triples {
			id, ok := d.TripleID(t)
			if !ok || len(d.Providers(id)) == 0 {
				id = -1
			}
			ids = append(ids, id)
		}
		rd := end()

		_, end = r.tr.begin("index.lookup", rid, hid)
		results = results[:0]
		for j, id := range ids {
			res := codec.ScoreResult{Triple: sreq.Triples[j], Basis: "unknown"}
			if id >= 0 {
				if p, acc, ok := idx.Lookup(id); ok {
					res.Probability, res.Basis = p, "snapshot"
					res.Accepted = &no
					if acc {
						res.Accepted = &yes
					}
				}
			}
			results = append(results, res)
		}
		ld := end()

		_, end = r.tr.begin("codec.encode_score", rid, hid)
		buf = codec.AppendScoreResponse(buf[:0], results, 1, idx.Version(), idx.Version())
		ed := end()

		if i < replayRequests/10 { // first tenth warms pools and caches up
			continue
		}
		handler, decode, resolve = append(handler, micros(hd)), append(decode, micros(dd)), append(resolve, micros(rd))
		lookup, encode = append(lookup, micros(ld)), append(encode, micros(ed))
	}
	overhead := make([]float64, len(handler))
	for i := range handler {
		overhead[i] = handler[i] - decode[i] - resolve[i] - lookup[i] - encode[i]
	}
	m := trimmedMeans(handler, decode, resolve, lookup, encode, overhead)
	for i, name := range []string{"serve.score_handler_us", "codec.decode_score_us", "triple.resolve_us", "index.lookup_us", "codec.encode_score_us", "serve.score_overhead_us"} {
		r.set(name, m[i])
	}

	allocs, bytes := allocsAndBytes(200, func() {
		if err := calls[0].serve(); err != nil {
			panic(err) // served 200 a moment ago
		}
	})
	r.set("serve.score_handler_allocs", single(allocs))
	r.set("serve.score_handler_bytes", single(bytes))
	r.set("codec.decode_score_allocs", single(testing.AllocsPerRun(200, func() {
		var req codec.ScoreRequest
		if err := codec.DecodeScoreRequest(scores[0].body, &req); err != nil {
			panic(err) // decoded a moment ago
		}
	})))
	r.set("codec.encode_score_allocs", single(testing.AllocsPerRun(200, func() {
		buf = codec.AppendScoreResponse(buf[:0], results, 1, 1, 1)
	})))

	// Subject listings: handler, index read and entries encoder.
	subjects := pools[opSubject]
	var sh, si, se []float64
	var entries []*index.Entry
	for i := 0; i < replayRequests/2; i++ {
		o := subjects[i%len(subjects)]
		hc, err := newHandlerCall(h, "GET", o.path, nil)
		if err != nil {
			return 0, err
		}
		rid := r.tr.request()
		hid, end := r.tr.begin("serve.subject_handler", rid, 0)
		if err := hc.serve(); err != nil {
			return 0, err
		}
		hd := end()
		_, end = r.tr.begin("index.subject", rid, hid)
		entries = idx.Subject(o.subject)
		id := end()
		_, end = r.tr.begin("codec.encode_entries", rid, hid)
		buf = codec.AppendEntriesResponse(buf[:0], entries, 1, 1, 1)
		ed := end()
		sh, si, se = append(sh, micros(hd)), append(si, micros(id)), append(se, micros(ed))
	}
	sm := trimmedMeans(sh, si, se)
	r.set("serve.subject_handler_us", sm[0])
	r.set("index.subject_us", sm[1])
	r.set("codec.encode_entries_us", sm[2])
	hc, err := newHandlerCall(h, "GET", subjects[0].path, nil)
	if err != nil {
		return 0, err
	}
	r.set("serve.subject_handler_allocs", single(testing.AllocsPerRun(200, func() {
		if err := hc.serve(); err != nil {
			panic(err) // served 200 a moment ago
		}
	})))
	return m[0].Value, nil
}
