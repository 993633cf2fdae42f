package core

import (
	"testing"

	"corrfuse/internal/dataset"
	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// TestIncrementalMatchesBatch: streaming all observations of the Obama
// dataset reproduces PrecRec's batch probabilities: both read the same
// log-ratio table and differ only in the order they add it up.
func TestIncrementalMatchesBatch(t *testing.T) {
	d := dataset.Obama()
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewPrecRec(Config{Dataset: d, Params: est})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(est, d.NumSources(), true)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < d.NumSources(); s++ {
		for _, id := range d.Output(triple.SourceID(s)) {
			if _, err := inc.Observe(triple.SourceID(s), d.Triple(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if inc.Len() != d.NumTriples() {
		t.Fatalf("observed %d triples, want %d", inc.Len(), d.NumTriples())
	}
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		want := batch.Probability(id)
		got, ok := inc.Probability(d.Triple(id))
		if !ok {
			t.Fatalf("triple %d unobserved", i)
		}
		if !stat.ApproxEqual(got, want, 1e-12) {
			t.Errorf("triple %d: incremental %v, batch %v", i, got, want)
		}
	}
}

// TestIncrementalMonotonicity: observing a good source raises a triple's
// probability; duplicates are no-ops.
func TestIncrementalMonotonicity(t *testing.T) {
	m := quality.NewManual(0.5)
	m.SetSource(0, 0.6, 0.2) // good
	m.SetSource(1, 0.2, 0.6) // bad
	inc, err := NewIncremental(m, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	tt := Triple{Subject: "e", Predicate: "p", Object: "v"}
	p1, err := inc.Observe(0, tt)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := inc.Probability(tt)
	if p1 != base {
		t.Error("Observe should return the current probability")
	}
	p1again, _ := inc.Observe(0, tt)
	if p1again != p1 {
		t.Error("duplicate observation changed the probability")
	}
	if inc.Providers(tt) != 1 {
		t.Error("duplicate observation changed the provider count")
	}
	p2, _ := inc.Observe(1, tt)
	if p2 >= p1 {
		t.Errorf("bad provider should lower the probability: %v -> %v", p1, p2)
	}
}

// TestIncrementalScopeModes: without silence penalties, an unprovided
// triple's first good provider immediately pushes it over the prior.
func TestIncrementalScopeModes(t *testing.T) {
	m := quality.NewManual(0.5)
	for s := 0; s < 5; s++ {
		m.SetSource(triple.SourceID(s), 0.6, 0.2)
	}
	noPenalty, err := NewIncremental(m, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	withPenalty, err := NewIncremental(m, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	tt := Triple{Subject: "e", Predicate: "p", Object: "v"}
	pNo, _ := noPenalty.Observe(0, tt)
	pWith, _ := withPenalty.Observe(0, tt)
	if pNo <= pWith {
		t.Errorf("silence penalties should lower the one-provider probability: %v vs %v", pNo, pWith)
	}
	if pNo <= 0.5 {
		t.Errorf("one good provider without penalties should exceed the prior: %v", pNo)
	}
}

func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(nil, 3, true); err == nil {
		t.Error("nil params should fail")
	}
	m := quality.NewManual(0.5)
	if _, err := NewIncremental(m, 0, true); err == nil {
		t.Error("zero sources should fail")
	}
	inc, err := NewIncremental(m, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Observe(5, Triple{}); err == nil {
		t.Error("out-of-range source should fail")
	}
	if _, ok := inc.Probability(Triple{Subject: "x"}); ok {
		t.Error("unobserved triple should be unknown")
	}
}
