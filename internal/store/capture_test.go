package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"corrfuse/internal/triple"
)

// captureOps drives a store from ops, two bytes per step (an op and its
// argument), and after every capture step checks the derived capture
// against a fold of the same store. Steps: a Put of a new or existing
// triple naming one to three sources, distinct or one repeated (argument
// picks them; sources s0–s11, so a source can first appear on an old row);
// a label change, to "true", "false" or a label ParseGold reads as Unknown
// (which takes a label-only entry's evidence away); a label-only
// or an evidence-less entry (SetFusion, or a Put with neither); a capture
// derived from the latest one; and a capture derived from an older one
// that is then thrown away, as a canceled rebuild's is.
func captureOps(t *testing.T, ops []byte) {
	s := New()
	key := func(b byte) triple.Triple {
		return mk(fmt.Sprintf("s%d", b%16), "p", fmt.Sprintf("o%d", (b/16)%6))
	}
	labels := []string{"true", "false", "maybe"}
	var caps []*Captured
	capture := func(from *Captured) *Captured {
		got := s.CaptureFrom(from)
		want := s.CaptureFrom(nil)
		sameCapture(t, got, want)
		return got
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 8 {
		case 0, 1, 2:
			var srcs []string
			for k := 0; k <= int(op/8)%3; k++ {
				srcs = append(srcs, fmt.Sprintf("s%d", (int(arg)+5*k*int(op%2))%12)) // even op: one source repeated
			}
			s.Put(Entry{Triple: key(arg + op), Sources: srcs})
		case 3:
			s.Put(Entry{Triple: key(arg), Label: labels[op/8%3]})
		case 4:
			s.SetFusion(key(arg), float64(op)/255, op%2 == 0)
		case 5:
			s.Put(Entry{Triple: key(arg), Probability: 0.5})
		case 6:
			var prev *Captured
			if len(caps) > 0 {
				prev = caps[len(caps)-1]
			}
			caps = append(caps, capture(prev))
		case 7:
			if len(caps) > 0 {
				capture(caps[int(arg)%len(caps)])
			}
		}
	}
}

// sameCapture fails unless got and want agree field for field: rows,
// version, sources, triples, labels, providers, outputs, and TripleID for
// every triple and for triples the dataset does not hold.
func sameCapture(t *testing.T, got, want *Captured) {
	t.Helper()
	if err := got.Data.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Rows, want.Rows) || got.Version != want.Version || got.entries != want.entries {
		t.Fatalf("rows %v version %d entries %d; the fold read rows %v version %d entries %d",
			got.Rows, got.Version, got.entries, want.Rows, want.Version, want.entries)
	}
	sameDataset(t, got.Data, want.Data)
}

func sameDataset(t *testing.T, got, want *triple.Dataset) {
	t.Helper()
	if !slices.Equal(got.Sources(), want.Sources()) || got.NumTriples() != want.NumTriples() {
		t.Fatalf("sources %v, %d triples; the fold built %v, %d", got.Sources(), got.NumTriples(), want.Sources(), want.NumTriples())
	}
	for _, src := range want.Sources() {
		if id, ok := got.SourceID(src.Name); !ok || id != src.ID {
			t.Fatalf("SourceID(%s) = %d, %v; the fold says %d", src.Name, id, ok, src.ID)
		}
		if out := got.Output(src.ID); !slices.Equal(out, want.Output(src.ID)) || cap(out) != len(out) {
			t.Fatalf("output of %s: %v (cap %d); the fold built %v", src.Name, out, cap(out), want.Output(src.ID))
		}
	}
	for i := 0; i < want.NumTriples(); i++ {
		id := triple.TripleID(i)
		if got.Triple(id) != want.Triple(id) || got.Label(id) != want.Label(id) || !slices.Equal(got.Providers(id), want.Providers(id)) {
			t.Fatalf("triple %d: %v %v %v; the fold built %v %v %v", id,
				got.Triple(id), got.Label(id), got.Providers(id), want.Triple(id), want.Label(id), want.Providers(id))
		}
		if provs := got.Providers(id); cap(provs) != len(provs) {
			t.Fatalf("triple %d: provider list has cap %d > len %d", id, cap(provs), len(provs))
		}
		if gid, ok := got.TripleID(want.Triple(id)); !ok || gid != id {
			t.Fatalf("TripleID(%v) = %d, %v; want %d", want.Triple(id), gid, ok, id)
		}
	}
	for _, absent := range []triple.Triple{mk("absent", "p", "o"), mk("s1", "p", "o9"), mk("s1", "q", "o1")} {
		gid, gok := got.TripleID(absent)
		wid, wok := want.TripleID(absent)
		if gid != wid || gok != wok {
			t.Fatalf("TripleID(%v) = %d, %v; the fold says %d, %v", absent, gid, gok, wid, wok)
		}
	}
}

// FuzzCaptureFrom: over any sequence of Puts, SetFusions and captures, a
// capture derived from an earlier one equals a fold of the same store.
func FuzzCaptureFrom(f *testing.F) {
	// New entries between captures; a source first seen on an old row.
	f.Add([]byte{0, 1, 0, 2, 6, 0, 0, 3, 0, 4, 6, 0, 0, 1, 6, 0, 8, 1, 6, 0})
	// Label changes and repeated sources, then a derivation from an old
	// capture that is thrown away.
	f.Add([]byte{8, 5, 16, 5, 6, 0, 3, 5, 11, 5, 8, 5, 6, 0, 3, 7, 7, 0, 6, 0})
	// An evidence-less entry (SetFusion, then a bare Put) that later gains
	// evidence.
	f.Add([]byte{0, 1, 4, 9, 5, 10, 6, 0, 0, 2, 6, 0, 3, 9, 6, 0, 0, 10, 6, 0})
	// A label-only entry relabeled to a label that does not parse, which
	// takes its row away.
	f.Add([]byte{3, 5, 0, 6, 6, 0, 19, 5, 6, 0, 0, 7, 6, 0})
	// Many small captures over a larger base: maxKeyMaps key maps follow
	// the base, the next capture that appends folds, and so on.
	base := []byte{}
	for k := byte(0); k < 24; k++ {
		base = append(base, 0, k*7)
	}
	for k := byte(0); k < 30; k++ {
		base = append(base, 6, 0, 0, 100+k*5, 8, k)
	}
	f.Add(base)
	f.Fuzz(captureOps)
}

// TestCaptureFromRandomSequences runs the fuzzer's check over random
// sequences, so every test run covers more than the committed seeds.
func TestCaptureFromRandomSequences(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(10+rng.Intn(150)))
		rng.Read(ops)
		captureOps(t, ops)
	}
}

// TestCaptureFromSharesWithPrevious: a derived capture reads only what
// changed. An unchanged row's provider list is the previous capture's
// backing array, the previous dataset answers as before, and the new
// dataset finds old triples through the shared base and new ones through
// the map appended after it.
func TestCaptureFromSharesWithPrevious(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.Put(Entry{Triple: mk(fmt.Sprintf("s%d", i), "p", "o"), Sources: []string{"a", "b"}})
	}
	prev := s.CaptureFrom(nil)
	s.Put(Entry{Triple: mk("s3", "p", "o"), Sources: []string{"c"}})
	s.Put(Entry{Triple: mk("new", "p", "o"), Sources: []string{"a"}})
	next := s.CaptureFrom(prev)
	sameCapture(t, next, s.CaptureFrom(nil))
	if p, q := prev.Data.Providers(7), next.Data.Providers(7); &p[0] != &q[0] {
		t.Fatal("an unchanged row's provider list was copied")
	}
	if p, q := prev.Data.Providers(3), next.Data.Providers(3); len(p) != 2 || len(q) != 3 {
		t.Fatalf("changed row: previous %v, next %v", p, q)
	}
	if _, ok := prev.Data.TripleID(mk("new", "p", "o")); ok {
		t.Fatal("the previous dataset sees a triple appended after it")
	}
	if id, ok := next.Data.TripleID(mk("new", "p", "o")); !ok || id != 50 {
		t.Fatalf("TripleID(new) = %d, %v; want 50", id, ok)
	}
}

// TestCaptureFromRace: readers of the latest published capture's dataset —
// TripleID, Providers, Output, Label — run while the next capture derives
// from it or, once the key maps after its base reach their limit, folds.
// Run under -race.
func TestCaptureFromRace(t *testing.T) {
	s := New()
	put := func(i, src int) {
		s.Put(Entry{Triple: mk(fmt.Sprintf("s%d", i), "p", "o"), Sources: []string{fmt.Sprintf("src%d", src%5)}, Label: []string{"", "true"}[i%2]})
	}
	for i := 0; i < 40; i++ {
		put(i, i)
	}
	var cur atomic.Pointer[Captured]
	cur.Store(s.CaptureFrom(nil))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := cur.Load().Data
				for id := 0; id < d.NumTriples(); id++ {
					tid := triple.TripleID(id)
					if got, ok := d.TripleID(d.Triple(tid)); !ok || got != tid {
						t.Errorf("TripleID(%v) = %d, %v; want %d", d.Triple(tid), got, ok, tid)
						return
					}
					for _, src := range d.Providers(tid) {
						if _, ok := slices.BinarySearch(d.Output(src), tid); !ok {
							t.Errorf("source %d provides %d, which its output lacks", src, tid)
							return
						}
					}
					_ = d.Label(tid)
				}
			}
		}()
	}
	derived, folded := 0, 0
	for i := 40; i < 100; i++ {
		put(i, i)
		put(i-30, i+1) // another source on an old row
		prev := cur.Load()
		next := s.CaptureFrom(prev)
		if baseKeys(next.Data) == baseKeys(prev.Data) {
			derived++
		} else {
			folded++
		}
		cur.Store(next)
	}
	close(stop)
	wg.Wait()
	sameCapture(t, cur.Load(), s.CaptureFrom(nil))
	if derived == 0 || folded == 0 {
		t.Fatalf("%d captures derived and %d folded; the test needs both", derived, folded)
	}
}

// baseKeys is the identity of d's base key map, which is unexported and
// read through reflect: a derived dataset shares its predecessor's, and a
// fold makes a new one.
func baseKeys(d *triple.Dataset) uintptr {
	return reflect.ValueOf(d).Elem().FieldByName("tripleByKey").Pointer()
}

// BenchmarkCaptureFrom compares a fold with a derivation on a store shaped
// like one refuse segment of the ingest-refuse workload: 90 000 entries over
// 144 sources, each named in the first rows as that workload's store does
// (so no later claim renumbers them), then 5 000 new entries and 2 000 old
// ones gaining a source.
func BenchmarkCaptureFrom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	put := func(i int) {
		srcs := make([]string, 1+rng.Intn(4))
		for k := range srcs {
			srcs[k] = fmt.Sprintf("source-%03d", rng.Intn(144))
		}
		if i < 144 {
			srcs = []string{fmt.Sprintf("source-%03d", i)}
		}
		s.Put(Entry{Triple: mk(fmt.Sprintf("item-%06d", i/7), "value", fmt.Sprintf("v%d", i%7)), Sources: srcs})
	}
	for i := 0; i < 90000; i++ {
		put(i)
	}
	prev := s.CaptureFrom(nil)
	for i := 90000; i < 95000; i++ {
		put(i)
	}
	for k := 0; k < 2000; k++ {
		put(144 + rng.Intn(90000-144))
	}
	b.Run("fold", func(b *testing.B) {
		for b.Loop() {
			s.CaptureFrom(nil)
		}
	})
	b.Run("derive", func(b *testing.B) {
		for b.Loop() {
			s.CaptureFrom(prev)
		}
	})
}
