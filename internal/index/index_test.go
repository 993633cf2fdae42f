package index_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// refBuildOrder is Build's ranking as it was before the key sort, kept as
// its reference: the provided entries in ID order, stable-sorted by
// descending probability and then by the built Triple.Key strings.
func refBuildOrder(d *triple.Dataset, probs []float64, provided []bool) []triple.Triple {
	type entry struct {
		t triple.Triple
		p float64
	}
	var es []entry
	for i, ok := range provided {
		if ok {
			es = append(es, entry{d.Triple(triple.TripleID(i)), probs[i]})
		}
	}
	sort.SliceStable(es, func(a, b int) bool {
		if es[a].p != es[b].p {
			return es[a].p > es[b].p
		}
		return es[a].t.Key() < es[b].t.Key()
	})
	out := make([]triple.Triple, len(es))
	for i, e := range es {
		out[i] = e.t
	}
	return out
}

// checkBuildOrder builds an Index over the tables and asserts that Ranked,
// every Subject listing and every Source listing equal, entry by entry with
// ==, the reference order refBuildOrder gives (filtered to the subject or
// source), that every listed entry is the Ranked entry of its triple, and
// that every entry carries its own triple's provenance, label and decision.
func checkBuildOrder(t *testing.T, d *triple.Dataset, probs []float64, provided, accepted []bool) {
	t.Helper()
	idx := index.Build(d, probs, provided, accepted, 1)
	want := refBuildOrder(d, probs, provided)
	got := idx.Ranked()
	if len(got) != len(want) {
		t.Fatalf("%d entries, reference %d", len(got), len(want))
	}
	rank := make(map[triple.Triple]*index.Entry, len(got))
	wantSubject := make(map[string][]triple.Triple)
	wantSource := make(map[string][]triple.Triple)
	for i := range got {
		e := &got[i]
		if e.Triple != want[i] {
			t.Fatalf("rank %d: %q, reference %q", i, e.Triple, want[i])
		}
		id, _ := d.TripleID(e.Triple)
		sources := make([]string, 0, len(d.Providers(id)))
		for _, s := range d.Providers(id) {
			sources = append(sources, d.SourceName(s))
			wantSource[d.SourceName(s)] = append(wantSource[d.SourceName(s)], e.Triple)
		}
		sort.Strings(sources)
		if e.Probability != probs[id] || e.Accepted != accepted[id] || e.Label != d.Label(id).Gold() || !slices.Equal(e.Sources, sources) {
			t.Fatalf("rank %d (%q): entry %+v does not describe triple %d", i, e.Triple, e, id)
		}
		rank[e.Triple] = e
		wantSubject[e.Triple.Subject] = append(wantSubject[e.Triple.Subject], e.Triple)
	}
	checkListing := func(kind, name string, got []*index.Entry, want []triple.Triple) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %q: %d entries, reference %d", kind, name, len(got), len(want))
		}
		for i, e := range got {
			if e.Triple != want[i] || e != rank[want[i]] {
				t.Fatalf("%s %q rank %d: %q, reference %q", kind, name, i, e.Triple, want[i])
			}
		}
	}
	for sub, w := range wantSubject {
		checkListing("subject", sub, idx.Subject(sub), w)
	}
	if idx.Subjects() != len(wantSubject) {
		t.Fatalf("%d subjects indexed, reference %d", idx.Subjects(), len(wantSubject))
	}
	for _, src := range d.Sources() {
		checkListing("source", src.Name, idx.Source(src.Name), wantSource[src.Name])
	}
}

// TestBuildRankingEqualsStableSort: Build's ranking and every subject and
// source listing == the stable sort on built keys, where almost every
// probability is tied — 0 and −0 (which rank as one value), and a run of
// more than 1 000 triples at 0.5 — and the fields hold what makes a joined
// key compare unlike its parts: bytes below and at the 0x1f separator, empty
// fields, subjects that are prefixes of other subjects, and distinct triples
// whose keys are one string. NaN stays out: the reference comparator gives
// it no place in the order.
func TestBuildRankingEqualsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := []string{"", "a", "ab", "a\x1f", "a\x1fb", "\x00", "a\x00", "b", "\x1e", "\x1f", "a\x1e", "ab\x1f", "é"}
	d := triple.NewDataset()
	src := []triple.SourceID{d.AddSource("x"), d.AddSource("y"), d.AddSource("z")}
	for i := 0; i < 3000; i++ {
		tr := triple.Triple{
			Subject:   parts[rng.Intn(len(parts))] + parts[rng.Intn(len(parts))],
			Predicate: parts[rng.Intn(len(parts))],
			Object:    parts[rng.Intn(len(parts))],
		}
		for _, s := range src {
			if rng.Intn(3) == 0 {
				d.Observe(s, tr)
			}
		}
		if rng.Intn(2) == 0 {
			d.SetLabel(tr, triple.True)
		}
	}
	n := d.NumTriples()
	probs, provided, accepted := make([]float64, n), make([]bool, n), make([]bool, n)
	levels := []float64{0, math.Copysign(0, -1), 0.25, 1}
	tied := 0
	for i := range probs {
		provided[i] = len(d.Providers(triple.TripleID(i))) > 0
		probs[i] = levels[rng.Intn(len(levels))]
		if i%2 == 0 {
			probs[i] = 0.5
			if provided[i] {
				tied++
			}
		}
		accepted[i] = probs[i] > 0.5
	}
	if tied <= 1000 {
		t.Fatalf("only %d provided triples at 0.5: the data no longer has a run of more than 1 000", tied)
	}
	keys := make(map[string]int)
	collisions := 0
	for i := 0; i < n; i++ {
		if k := d.Triple(triple.TripleID(i)).Key(); provided[i] {
			if keys[k]++; keys[k] == 2 {
				collisions++
			}
		}
	}
	if collisions == 0 {
		t.Fatal("no two provided triples share a key: the data no longer tests the ID tie-break")
	}
	checkBuildOrder(t, d, probs, provided, accepted)
}

// TestBuildRankingBySubjectRank: with no separator inside any subject,
// Build orders the ties of different subjects by a rank of the subjects and
// compares whole keys only within one subject. Both shapes hold subjects
// that are prefixes of others and bytes below, at and above 0x1f after a
// prefix; separators stay in predicates and objects. The first shape is
// many ties over few subjects, which ranks them; the second is one triple
// per subject and short runs, where ranking would cost more than the
// plain key sort of each run, which Build falls back to.
func TestBuildRankingBySubjectRank(t *testing.T) {
	parts := []string{"", "a", "ab", "\x00", "a\x00", "b", "\x1e", "a\x1e", "a\x20", "é"}
	fields := []string{"", "a", "a\x1f", "\x1f", "b", "a\x1fb"}
	for _, shape := range []struct {
		name             string
		triples, levels  int
		subjectPerTriple bool
	}{{"few subjects", 3000, 4, false}, {"one triple per subject", 3000, 1000, true}} {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			d := triple.NewDataset()
			src := []triple.SourceID{d.AddSource("x"), d.AddSource("y"), d.AddSource("z")}
			for i := 0; i < shape.triples; i++ {
				sub := parts[rng.Intn(len(parts))] + parts[rng.Intn(len(parts))]
				if shape.subjectPerTriple {
					sub += fmt.Sprint(i)
				}
				tr := triple.Triple{Subject: sub, Predicate: fields[rng.Intn(len(fields))], Object: fields[rng.Intn(len(fields))]}
				d.Observe(src[rng.Intn(len(src))], tr)
				if rng.Intn(2) == 0 {
					d.Observe(src[rng.Intn(len(src))], tr)
				}
			}
			n := d.NumTriples()
			probs, provided, accepted := make([]float64, n), make([]bool, n), make([]bool, n)
			for i := range probs {
				probs[i] = float64(rng.Intn(shape.levels)) / float64(shape.levels)
				provided[i] = true
				accepted[i] = probs[i] > 0.5
			}
			checkBuildOrder(t, d, probs, provided, accepted)
		})
	}
}

// TestBuildProviderSetCollisions: entries with equal provider sets share
// one sorted name list, found by a hash of the set; with a hash that sends
// every set to one key, each entry still gets its own set's names.
func TestBuildProviderSetCollisions(t *testing.T) {
	defer func(p uint64) { *index.SetHashPrime = p }(*index.SetHashPrime)
	*index.SetHashPrime = 0
	d := randomDataset(3)
	probs, provided, accepted := buildModel(t, d, corrfuse.PrecRecCorr, 0).FrozenScores()
	checkBuildOrder(t, d, probs, provided, accepted)
}

// fuzzLevels are the probabilities FuzzBuildRanking draws from: few, so
// ties are common, and the ends of the order (±0, negative, subnormal, 1,
// ±Inf) are reached. NaN is left out, as in TestBuildRankingEqualsStableSort.
var fuzzLevels = []float64{0, math.Copysign(0, -1), 5e-324, 0.25, math.Nextafter(0.5, 0), 0.5, 1, -0.5, math.Inf(1), math.Inf(-1)}

// FuzzBuildRanking: on fuzzer-chosen field bytes, provenance and
// probabilities, Build's ranking and listings equal refBuildOrder's. The
// fields are the 0xff-separated pieces of the first input, three to a
// triple; each byte of the second gives its triple's probability level, its
// providers and its label.
func FuzzBuildRanking(f *testing.F) {
	f.Add([]byte("a\xffp\xffo\xffa\x1f\xff\xffo\xffa\xff\x1fp\xffo"), []byte{0x10, 0x21, 0x32})
	f.Add([]byte("\xff\xff\xffab\xff\xff\xffa\xffb\xff"), []byte{0x01, 0x41, 0x81})
	f.Fuzz(func(t *testing.T, fields, meta []byte) {
		pieces := bytes.Split(fields, []byte{0xff})
		d := triple.NewDataset()
		src := []triple.SourceID{d.AddSource("x"), d.AddSource("y"), d.AddSource("z")}
		var levels []float64
		for i := 0; i+2 < len(pieces) && i/3 < len(meta); i += 3 {
			tr := triple.Triple{Subject: string(pieces[i]), Predicate: string(pieces[i+1]), Object: string(pieces[i+2])}
			b := meta[i/3]
			id := d.SetLabel(tr, triple.Label(b>>6%3))
			for j, s := range src {
				if b>>(4+j)&1 != 0 {
					d.Observe(s, tr)
				}
			}
			if int(id) == len(levels) {
				levels = append(levels, 0)
			}
			levels[id] = fuzzLevels[int(b&0x0f)%len(fuzzLevels)]
		}
		n := d.NumTriples()
		provided, accepted := make([]bool, n), make([]bool, n)
		for i := range provided {
			provided[i] = len(d.Providers(triple.TripleID(i))) > 0
			accepted[i] = levels[i] > 0.5
		}
		checkBuildOrder(t, d, levels, provided, accepted)
	})
}

// TestBuildAllocationsIndependentOfEntries: Build allocates per subject,
// per source and per distinct structure, never per entry: a fixture and the
// same fixture with four times the triples per subject (same subjects, same
// sources, the same probability levels) cost the same number of allocations.
func TestBuildAllocationsIndependentOfEntries(t *testing.T) {
	fixture := func(perSubject int) (d *triple.Dataset, probs []float64, provided, accepted []bool) {
		rng := rand.New(rand.NewSource(5))
		d = triple.NewDataset()
		src := []triple.SourceID{d.AddSource("x"), d.AddSource("y"), d.AddSource("z"), d.AddSource("w")}
		for s := 0; s < 40; s++ {
			for k := 0; k < perSubject; k++ {
				tr := triple.Triple{Subject: fmt.Sprintf("s%d", s), Predicate: "p", Object: fmt.Sprintf("o%d", k)}
				d.Observe(src[k%len(src)], tr)
				d.Observe(src[(k+1+rng.Intn(3))%len(src)], tr)
			}
		}
		n := d.NumTriples()
		probs, provided, accepted = make([]float64, n), make([]bool, n), make([]bool, n)
		for i := range probs {
			probs[i] = float64(rng.Intn(8)) / 8
			provided[i] = true
			accepted[i] = probs[i] > 0.5
		}
		return d, probs, provided, accepted
	}
	allocs := func(perSubject int) float64 {
		d, probs, provided, accepted := fixture(perSubject)
		return testing.AllocsPerRun(5, func() { index.Build(d, probs, provided, accepted, 1) })
	}
	small, large := allocs(25), allocs(100)
	if small != large {
		t.Fatalf("Build made %v allocations on 1 000 triples and %v on 4 000 over the same subjects and sources: something is allocated per entry", small, large)
	}
}
