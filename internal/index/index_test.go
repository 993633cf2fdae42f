package index_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"corrfuse"
	"corrfuse/internal/index"
	"corrfuse/internal/triple"
)

// randomDataset generates a reproducible random dataset: nSrc sources
// observing triples over a handful of subjects, ~2/3 labeled. A small
// backbone (true triples provided by every source, false triples provided
// by half) guarantees quality estimation is viable for every seed.
func randomDataset(seed int64) *triple.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := triple.NewDataset()
	nSrc := 4 + rng.Intn(8)
	srcs := make([]triple.SourceID, nSrc)
	for i := range srcs {
		srcs[i] = d.AddSource(fmt.Sprintf("src%d", i))
	}
	for i := 0; i < 3; i++ {
		t := triple.Triple{Subject: fmt.Sprintf("base%d", i), Predicate: "p", Object: "v"}
		for _, s := range srcs {
			d.Observe(s, t)
		}
		d.SetLabel(t, triple.True)
	}
	for i := 0; i < 2; i++ {
		t := triple.Triple{Subject: fmt.Sprintf("basef%d", i), Predicate: "p", Object: "v"}
		for j, s := range srcs {
			if j%2 == i%2 {
				d.Observe(s, t)
			}
		}
		d.SetLabel(t, triple.False)
	}
	nSub := 10 + rng.Intn(30)
	for s := 0; s < nSub; s++ {
		for p := 0; p < 1+rng.Intn(3); p++ {
			t := triple.Triple{
				Subject:   fmt.Sprintf("s%d", s),
				Predicate: fmt.Sprintf("p%d", p),
				Object:    fmt.Sprintf("o%d", rng.Intn(3)),
			}
			provided := false
			for _, src := range srcs {
				if rng.Float64() < 0.4 {
					d.Observe(src, t)
					provided = true
				}
			}
			switch rng.Intn(3) {
			case 0:
				d.SetLabel(t, triple.True)
			case 1:
				if provided {
					d.SetLabel(t, triple.False)
				}
			}
		}
	}
	return d
}

// buildModel trains the model for one property-test configuration.
func buildModel(t *testing.T, d *triple.Dataset, method corrfuse.Method, shards int) corrfuse.Model {
	t.Helper()
	opts := corrfuse.Options{Method: method, Smoothing: 0.5, Shards: shards}
	m, err := corrfuse.NewModel(d, opts)
	if err != nil {
		t.Fatalf("NewModel(%v, shards=%d): %v", method, shards, err)
	}
	return m
}

// buildIndex freezes the model and builds an Index over its score tables,
// the way the serving layer does at snapshot-swap time.
func buildIndex(t *testing.T, d *triple.Dataset, m corrfuse.Model, version uint64) *index.Index {
	t.Helper()
	probs, provided, accepted := m.FrozenScores()
	return index.Build(d, probs, provided, accepted, version)
}

// propertyConfigs spans the supervised methods and an unsupervised baseline;
// corr-sharded3 asks for three shards, which the engine ignores.
func propertyConfigs() []struct {
	name   string
	method corrfuse.Method
	shards int
} {
	return []struct {
		name   string
		method corrfuse.Method
		shards int
	}{
		{"precrec", corrfuse.PrecRec, 0},
		{"corr", corrfuse.PrecRecCorr, 0},
		{"corr-sharded3", corrfuse.PrecRecCorr, 3},
		{"union", corrfuse.UnionK, 0},
	}
}

// TestIndexInvariants checks, over random datasets and every engine
// configuration, the read-path invariants the serving layer relies on:
//
//   - every indexed probability is in [0, 1];
//   - Lookup(id) equals the model's Probability for every triple of the
//     dataset, to 1e-12 (in fact exactly: the index freezes the model's own
//     outputs);
//   - Lookup rejects exactly the IDs outside the fused result set;
//   - every per-subject and per-source slice is ranked by descending
//     probability and contains only matching entries.
func TestIndexInvariants(t *testing.T) {
	for _, cfg := range propertyConfigs() {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				d := randomDataset(seed)
				m := buildModel(t, d, cfg.method, cfg.shards)
				idx := buildIndex(t, d, m, uint64(seed))
				if idx.Version() != uint64(seed) {
					t.Fatalf("Version = %d, want %d", idx.Version(), seed)
				}
				provided := 0
				for i := 0; i < d.NumTriples(); i++ {
					id := triple.TripleID(i)
					p, _, ok := idx.Lookup(id)
					if len(d.Providers(id)) == 0 {
						if ok {
							t.Fatalf("Lookup(%d) ok for unprovided triple", id)
						}
						continue
					}
					provided++
					if !ok {
						t.Fatalf("Lookup(%d) not ok for provided triple %v", id, d.Triple(id))
					}
					if p < 0 || p > 1 || math.IsNaN(p) {
						t.Fatalf("probability %v outside [0,1] for %v", p, d.Triple(id))
					}
					if want := m.ProbabilityByID(id); math.Abs(p-want) > 1e-12 {
						t.Fatalf("Lookup(%d) = %v, model says %v", id, p, want)
					}
				}
				if idx.Len() != provided {
					t.Fatalf("index has %d entries, dataset has %d provided triples", idx.Len(), provided)
				}
				if _, _, ok := idx.Lookup(triple.TripleID(d.NumTriples())); ok {
					t.Fatal("Lookup beyond the dataset returned ok")
				}
				checkRanked(t, d, idx)
			})
		}
	}
}

// checkRanked asserts every subject and source slice is sorted by
// descending probability with entries matching the key.
func checkRanked(t *testing.T, d *triple.Dataset, idx *index.Index) {
	t.Helper()
	subjects := make(map[string]bool)
	sources := make(map[string]bool)
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		subjects[d.Triple(id).Subject] = true
		for _, s := range d.Providers(id) {
			sources[d.SourceName(s)] = true
		}
	}
	total := 0
	for sub := range subjects {
		entries := idx.Subject(sub)
		total += len(entries)
		for i, e := range entries {
			if e.Triple.Subject != sub {
				t.Fatalf("subject %q slice contains %v", sub, e.Triple)
			}
			if i > 0 && entries[i-1].Probability < e.Probability {
				t.Fatalf("subject %q slice not ranked: %v before %v", sub, entries[i-1].Probability, e.Probability)
			}
		}
	}
	if total != idx.Len() {
		t.Fatalf("subject slices hold %d entries, index %d", total, idx.Len())
	}
	for src := range sources {
		entries := idx.Source(src)
		for i, e := range entries {
			found := false
			for _, name := range e.Sources {
				if name == src {
					found = true
				}
			}
			if !found {
				t.Fatalf("source %q slice contains %v provided by %v", src, e.Triple, e.Sources)
			}
			if i > 0 && entries[i-1].Probability < e.Probability {
				t.Fatalf("source %q slice not ranked", src)
			}
		}
	}
}

// TestIndexDeterministicAcrossRebuilds: rebuilding identical data must
// produce bitwise-identical rankings — same subjects, same order, same
// probabilities — so replicas fused from the same store serve the same
// answers and a replayed rebuild is reproducible.
func TestIndexDeterministicAcrossRebuilds(t *testing.T) {
	for _, cfg := range propertyConfigs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				d1 := randomDataset(seed)
				d2 := randomDataset(seed)
				idx1 := buildIndex(t, d1, buildModel(t, d1, cfg.method, cfg.shards), 1)
				idx2 := buildIndex(t, d2, buildModel(t, d2, cfg.method, cfg.shards), 1)
				r1, r2 := idx1.Ranked(), idx2.Ranked()
				if len(r1) != len(r2) {
					t.Fatalf("rebuild changed result count: %d vs %d", len(r1), len(r2))
				}
				for i := range r1 {
					if r1[i].Triple != r2[i].Triple {
						t.Fatalf("rank %d: %v vs %v", i, r1[i].Triple, r2[i].Triple)
					}
					if r1[i].Probability != r2[i].Probability {
						t.Fatalf("rank %d (%v): probability %v vs %v",
							i, r1[i].Triple, r1[i].Probability, r2[i].Probability)
					}
					if r1[i].Accepted != r2[i].Accepted || r1[i].Label != r2[i].Label {
						t.Fatalf("rank %d (%v): decision or label differs", i, r1[i].Triple)
					}
				}
			})
		}
	}
}

// TestFrozenModelMatchesUnfrozen: freezing must not change a single served
// value — Probability and Score after Fuse equal the algorithm's direct
// outputs computed by an identical unfrozen model.
func TestFrozenModelMatchesUnfrozen(t *testing.T) {
	for _, cfg := range propertyConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			d := randomDataset(42)
			frozen := buildModel(t, d, cfg.method, cfg.shards)
			if _, err := frozen.Fuse(); err != nil {
				t.Fatal(err)
			}
			cold := buildModel(t, d, cfg.method, cfg.shards)
			var ids []triple.TripleID
			for i := 0; i < d.NumTriples(); i++ {
				ids = append(ids, triple.TripleID(i))
			}
			warm := frozen.Score(ids)
			want := cold.Score(ids)
			for i := range ids {
				if warm[i] != want[i] {
					t.Fatalf("Score(%v) = %v frozen, %v unfrozen", d.Triple(ids[i]), warm[i], want[i])
				}
				if p := frozen.ProbabilityByID(ids[i]); p != want[i] {
					t.Fatalf("ProbabilityByID(%v) = %v frozen, %v unfrozen", d.Triple(ids[i]), p, want[i])
				}
			}
		})
	}
}
