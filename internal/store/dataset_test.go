package store_test

// Tests that need internal/dataset live in the external test package:
// dataset imports store for the file schema.

import (
	"bytes"
	"path/filepath"
	"testing"

	"corrfuse/internal/dataset"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

func TestDatasetRoundTrip(t *testing.T) {
	d := dataset.Obama()
	s := store.FromDataset(d)
	if s.Len() != 10 {
		t.Fatalf("store Len = %d, want 10", s.Len())
	}
	back := s.Dataset()
	if back.NumTriples() != d.NumTriples() || back.NumSources() != d.NumSources() {
		t.Fatalf("round trip shape mismatch")
	}
	nt1, nf1 := d.CountLabels()
	nt2, nf2 := back.CountLabels()
	if nt1 != nt2 || nf1 != nf2 {
		t.Errorf("labels (%d,%d) vs (%d,%d)", nt1, nf1, nt2, nf2)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := store.FromDataset(dataset.Obama())
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back := store.New()
	if err := back.Read(&buf); err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("Len %d vs %d", back.Len(), s.Len())
	}
	tr := triple.Triple{Subject: "Obama", Predicate: "profession", Object: "president"}
	a, _ := s.Get(tr)
	b, ok := back.Get(tr)
	if !ok || len(a.Sources) != len(b.Sources) || a.Label != b.Label {
		t.Errorf("entry mismatch: %v vs %v", a, b)
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	s := store.FromDataset(dataset.Obama())
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Errorf("Len %d vs %d", back.Len(), s.Len())
	}
	if _, err := store.Load(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file should fail")
	}
}

// TestDatasetFileIsStoreFile: dataset.Write (what datagen emits) and
// Store.Save produce the same lines for the same data, and each reads the
// other's output — there is one file schema, not a dataset dialect and a
// store dialect.
func TestDatasetFileIsStoreFile(t *testing.T) {
	d := dataset.Obama()
	var fromDataset, fromStore bytes.Buffer
	if err := dataset.Write(&fromDataset, d); err != nil {
		t.Fatal(err)
	}
	if err := store.FromDataset(d).Write(&fromStore); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromDataset.Bytes(), fromStore.Bytes()) {
		t.Fatalf("dataset.Write and Store.Write disagree:\n%s\nvs\n%s", &fromDataset, &fromStore)
	}
	st := store.New()
	if err := st.Read(bytes.NewReader(fromDataset.Bytes())); err != nil {
		t.Fatalf("store refused a dataset file: %v", err)
	}
	if st.Len() != d.NumTriples() {
		t.Fatalf("store loaded %d of %d dataset triples", st.Len(), d.NumTriples())
	}
	back, err := dataset.Read(&fromStore)
	if err != nil {
		t.Fatalf("dataset refused a store file: %v", err)
	}
	if back.NumTriples() != d.NumTriples() || back.NumSources() != d.NumSources() {
		t.Fatalf("dataset read %d triples / %d sources from the store file, want %d / %d",
			back.NumTriples(), back.NumSources(), d.NumTriples(), d.NumSources())
	}
}
