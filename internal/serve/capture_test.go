package serve

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"corrfuse/internal/triple"
)

// sameAsFold fails unless d is, field for field, the dataset a capture of
// the store with no previous capture builds now.
func sameAsFold(t *testing.T, srv *Server, d *triple.Dataset) {
	t.Helper()
	want := srv.store.Dataset()
	if !slices.Equal(d.Sources(), want.Sources()) || d.NumTriples() != want.NumTriples() {
		t.Fatalf("sources %v, %d triples; a fresh capture has %v, %d", d.Sources(), d.NumTriples(), want.Sources(), want.NumTriples())
	}
	for i := 0; i < want.NumTriples(); i++ {
		id := triple.TripleID(i)
		tt := want.Triple(id)
		if got, ok := d.TripleID(tt); !ok || got != id || d.Label(id) != want.Label(id) || !slices.Equal(d.Providers(id), want.Providers(id)) {
			t.Fatalf("triple %d %v: id %d, %v, label %v, providers %v; a fresh capture has label %v, providers %v",
				id, tt, got, ok, d.Label(id), d.Providers(id), want.Label(id), want.Providers(id))
		}
	}
	for _, src := range want.Sources() {
		if !slices.Equal(d.Output(src.ID), want.Output(src.ID)) {
			t.Fatalf("output of %s: %v; a fresh capture has %v", src.Name, d.Output(src.ID), want.Output(src.ID))
		}
	}
}

// TestCanceledRebuildLosesNoClaims: a rebuild canceled right after its
// capture swaps nothing, and the next rebuild — deriving from the snapshot's
// capture again, by the store's version stamps — serves every claim
// ingested since the snapshot, those before the canceled capture included.
func TestCanceledRebuildLosesNoClaims(t *testing.T) {
	srv := newServer(t, seedStore(t), corrConfig())
	before := srv.snap.Load()
	claims := []Observation{
		{Source: "good1", Subject: "n1", Predicate: "p", Object: "v"},
		{Source: "bad", Subject: "u1", Predicate: "p", Object: "v"},
		{Source: "good2", Subject: "t3", Predicate: "p", Object: "v", Label: "false"},
	}
	for _, o := range claims {
		if _, _, err := srv.ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.testStageHook = func(stage string) {
		if stage == "capture" {
			cancel()
		}
	}
	_, _, err := srv.rebuild(ctx, false, false)
	srv.testStageHook = nil
	if err == nil {
		t.Fatal("a rebuild canceled at its capture succeeded")
	}
	if srv.snap.Load() != before {
		t.Fatal("a canceled rebuild swapped its snapshot in")
	}
	late := Observation{Source: "good2", Subject: "n2", Predicate: "p", Object: "v"}
	if _, _, err := srv.ingest(late); err != nil {
		t.Fatal(err)
	}
	claims = append(claims, late)

	sn, skipped, err := srv.rebuild(context.Background(), false, false)
	if err != nil || skipped {
		t.Fatalf("rebuild: skipped=%v err=%v", skipped, err)
	}
	sameAsFold(t, srv, sn.data)
	for _, o := range claims {
		tt := triple.Triple{Subject: o.Subject, Predicate: o.Predicate, Object: o.Object}
		id, ok := sn.data.TripleID(tt)
		src, known := sn.data.SourceID(o.Source)
		if !ok || !known || !sn.data.Provides(src, id) {
			t.Fatalf("claim %+v is not in the snapshot after the canceled rebuild", o)
		}
		if _, _, ok := sn.idx.Lookup(id); !ok {
			t.Fatalf("claim %+v has no batch answer", o)
		}
	}
}

// TestRefuseDerivesFromSnapshot: a refuse after k new claims derives its
// dataset from the snapshot's: the base key map is the snapshot's own, an
// unchanged row keeps the snapshot's provider list (the same backing
// array), and the result equals a fresh capture.
func TestRefuseDerivesFromSnapshot(t *testing.T) {
	srv := newServer(t, seedStoreWide(t, 4), corrConfig())
	cur := srv.snap.Load()
	for k := 0; k < 5; k++ {
		o := Observation{Source: "good1", Subject: fmt.Sprintf("new%d", k), Predicate: "p", Object: "v"}
		if _, _, err := srv.ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	next, skipped, err := srv.rebuild(context.Background(), false, false)
	if err != nil || skipped {
		t.Fatalf("rebuild: skipped=%v err=%v", skipped, err)
	}
	sameAsFold(t, srv, next.data)
	// The key map is unexported; its identity is read through reflect.
	baseMap := func(d *triple.Dataset) uintptr {
		return reflect.ValueOf(d).Elem().FieldByName("tripleByKey").Pointer()
	}
	if baseMap(next.data) != baseMap(cur.data) {
		t.Fatal("the refuse rebuilt the base key map instead of sharing the snapshot's")
	}
	shared := false
	for i := 0; i < cur.data.NumTriples(); i++ {
		p, q := cur.data.Providers(triple.TripleID(i)), next.data.Providers(triple.TripleID(i))
		if len(p) > 0 && len(q) > 0 && &p[0] == &q[0] {
			shared = true
			break
		}
	}
	if !shared {
		t.Fatal("no unchanged row shares the snapshot's provider list")
	}
	if next.capture.Version < cur.capture.Version || len(next.capture.Rows) != next.data.NumTriples() {
		t.Fatalf("capture version %d after %d, %d rows for %d triples",
			next.capture.Version, cur.capture.Version, len(next.capture.Rows), next.data.NumTriples())
	}
}
