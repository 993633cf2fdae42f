//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// numConns is the number of load connections: never more than the 2 cores
// the reference box has, so generator and server do not fight over them
// more than two callers would.
const numConns = 2

// window is the length of the slices throughput, median latency and CPU per
// request are taken over. A run reports a quartile of its windows (see
// lowerQuartile), so that a burst from a neighbour on the host cannot move
// its number while a change that slows most windows does.
const window = time.Second

const (
	opScore = iota
	opSubject
	opTriple
	numOpKinds
)

// op is one pre-serialised read request and the full check of its answer.
type op struct {
	kind  uint8
	req   []byte
	check func(body []byte) error
	// body, path and subject are what the in-process replay of the traced
	// run feeds the handler and the index (POST body; GET path).
	body    []byte
	path    string
	subject string
}

// rec is one completed operation.
type rec struct {
	at   time.Duration // completion time since the phase began
	lat  time.Duration // closed loop: since send; open loop: since due
	late time.Duration // open loop: send lateness the generator caused
	kind uint8
}

// opMix draws operations in the read-heavy proportions: 70 % bulk score,
// 20 % subject listing, 10 % single triple.
type opMix struct {
	rng   *rand.Rand
	pools [numOpKinds][]op
}

func (m *opMix) next() *op {
	k := opScore
	switch x := m.rng.Intn(10); {
	case x >= 9:
		k = opTriple
	case x >= 7:
		k = opSubject
	}
	return &m.pools[k][m.rng.Intn(len(m.pools[k]))]
}

// fullCheckEvery is how often a response is parsed completely and compared
// with the oracle; the others get the status and generation-trailer check.
const fullCheckEvery = 64

// phase drives every connection for d and returns their records. With
// interval > 0 each connection sends on a fixed schedule (open loop) and
// latency counts from when a request was due; otherwise it sends the next
// request as soon as the previous answer is in (closed loop). With spans
// set, every operation is also recorded as a client span.
func (r *run) phase(conns []*conn, mixes []*opMix, d, interval time.Duration, spans bool) [][]rec {
	out := make([][]rec, len(conns))
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = r.drive(conns[i], mixes[i], begin, d, interval, spans)
		}(i)
	}
	wg.Wait()
	return out
}

func (r *run) drive(c *conn, mix *opMix, begin time.Time, d, interval time.Duration, spans bool) []rec {
	recs := make([]rec, 0, 1<<15)
	var local []span
	n := 0
	prevDone := begin
	for {
		due := begin.Add(time.Duration(n) * interval)
		now := time.Now()
		if interval > 0 && now.Before(due) {
			sleepUntil(due)
			now = time.Now()
		}
		if now.Sub(begin) >= d {
			break
		}
		o := mix.next()
		send := now
		status, body, err := c.do(o.req)
		done := time.Now()
		n++
		ok := err == nil && status == 200
		if ok && o.kind != opTriple && !versionsAgree(body) {
			err = fmt.Errorf("snapshotVersion and indexVersion differ")
		} else if ok && n%fullCheckEvery == 0 {
			err = o.check(body)
		}
		if !ok || err != nil {
			r.fail("%s: status %d: %v", o.req[:min(len(o.req), 40)], status, err)
			if err != nil && status == 0 {
				break // the connection is gone
			}
			prevDone = done
			continue
		}
		rc := rec{at: done.Sub(begin), lat: done.Sub(send), kind: o.kind}
		if interval > 0 {
			rc.lat = done.Sub(due)
			from := due
			if prevDone.After(from) {
				from = prevDone
			}
			rc.late = send.Sub(from)
		}
		recs = append(recs, rc)
		prevDone = done
		if spans {
			local = append(local, span{Name: clientSpanNames[o.kind], Start: int64(send.Sub(r.tr.epoch)), End: int64(done.Sub(r.tr.epoch))})
		}
	}
	r.attempt(n)
	if spans {
		r.tr.adopt(local)
	}
	return recs
}

// sleepUntil blocks until t. time.Sleep goes through the netpoller, whose
// timeouts are whole milliseconds — as long as the interval between two
// requests of the fixed-rate phase — so this sleeps on the kernel's
// high-resolution timer instead, which wakes within some tens of µs.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR just means looking at the clock again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

var clientSpanNames = [numOpKinds]string{"client.score", "client.subject", "client.triple"}

// adopt adds spans recorded outside the tracer's lock (one root span per
// request each).
func (t *tracer) adopt(spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		t.reqs++
		s.ID, s.Request = len(t.spans)+1, t.reqs
		t.spans = append(t.spans, s)
	}
}

// windows groups records of all connections by completion window and
// returns, per full window, the operation count (all kinds) and the
// latencies of the given kind in milliseconds.
func windows(recs [][]rec, d time.Duration, kind int) (counts []float64, lats [][]float64) {
	n := int(d / window)
	counts = make([]float64, n)
	lats = make([][]float64, n)
	for _, rs := range recs {
		for _, rc := range rs {
			w := int(rc.at / window)
			if w >= n {
				continue
			}
			counts[w]++
			if int(rc.kind) == kind {
				lats[w] = append(lats[w], millis(rc.lat))
			}
		}
	}
	return counts, lats
}

// windowMedians returns each window's median latency, skipping empty ones.
func windowMedians(lats [][]float64) []float64 {
	var out []float64
	for _, l := range lats {
		if len(l) > 0 {
			out = append(out, median(l))
		}
	}
	return out
}

func countRecs(recs [][]rec) int {
	n := 0
	for _, rs := range recs {
		n += len(rs)
	}
	return n
}
