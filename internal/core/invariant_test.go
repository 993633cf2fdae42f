package core

import (
	"testing"

	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// TestPatternDistributionSumsToOne: for a consistent parameter set, the
// inclusion–exclusion expansion of Pr(Ot|t) over all 2^n observation
// patterns must total 1 (it is a probability distribution over patterns).
// We build the parameters from an explicit joint distribution over source
// behaviour so they are exactly consistent, then check the invariant.
func TestPatternDistributionSumsToOne(t *testing.T) {
	const n = 4
	d := triple.NewDataset()
	srcs := make([]triple.SourceID, n)
	for i := range srcs {
		srcs[i] = d.AddSource(string(rune('A' + i)))
	}

	// Explicit joint distribution over provider patterns given t true:
	// weight per pattern, normalized. Derived joint recalls are then
	// consistent by construction.
	rng := stat.NewRNG(99)
	weights := make([]float64, 1<<n)
	total := 0.0
	for i := range weights {
		weights[i] = rng.Float64()
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}
	// jointRecall(S) = Σ over patterns ⊇ S of weight.
	jointRecall := func(set stat.Set64) float64 {
		sum := 0.0
		for pat := 0; pat < 1<<n; pat++ {
			if set.IsSubsetOf(stat.Set64(pat)) {
				sum += weights[pat]
			}
		}
		return sum
	}

	m := quality.NewManual(0.5)
	full := stat.FullSet64(n)
	full.Subsets(func(sub stat.Set64) bool {
		if sub.Empty() {
			return true
		}
		ids := make([]triple.SourceID, 0, sub.Len())
		for _, e := range sub.Elems() {
			ids = append(ids, srcs[e])
		}
		r := jointRecall(sub)
		m.SetJointRecall(ids, r)
		m.SetJointFPR(ids, r) // same distribution for the false side
		if sub.Len() == 1 {
			m.SetSource(ids[0], r, r)
		}
		return true
	})

	// One triple per provider pattern, so every pattern appears.
	patTriple := make([]triple.Triple, 1<<n)
	for pat := 1; pat < 1<<n; pat++ {
		tr := triple.Triple{Subject: "e", Predicate: "p", Object: string(rune('0'+pat%10)) + string(rune('a'+pat/10))}
		patTriple[pat] = tr
		for _, e := range stat.Set64(pat).Elems() {
			d.Observe(srcs[e], tr)
		}
	}

	ex, err := NewExact(Config{Dataset: d, Params: m})
	if err != nil {
		t.Fatal(err)
	}
	cv := ex.views[0]

	var sum stat.KahanSum
	for pat := 0; pat < 1<<n; pat++ {
		p := pattern{providers: stat.Set64(pat), inScope: full}
		// Reconstruct Pr(pattern | t) from the same machinery clusterMu
		// uses: inclusion–exclusion over non-providers.
		nonProviders := full.Minus(stat.Set64(pat))
		var rSum stat.KahanSum
		nonProviders.Subsets(func(sub stat.Set64) bool {
			set := p.providers.Union(sub)
			sign := 1.0
			if sub.Len()%2 == 1 {
				sign = -1
			}
			rSum.Add(sign * cv.jointRecall(m, set))
			return true
		})
		pr := rSum.Sum()
		if pr < -1e-9 {
			t.Errorf("pattern %v: negative probability %v", stat.Set64(pat), pr)
		}
		// Cross-check against the explicit distribution.
		if !stat.ApproxEqual(pr, weights[pat], 1e-9) {
			t.Errorf("pattern %v: Pr = %v, want %v", stat.Set64(pat), pr, weights[pat])
		}
		sum.Add(pr)
	}
	if !stat.ApproxEqual(sum.Sum(), 1, 1e-9) {
		t.Errorf("pattern probabilities sum to %v, want 1", sum.Sum())
	}

	// And with a consistent distribution, µ = weights[pat]/weights[pat]
	// = 1 for every provided pattern (true and false sides identical).
	for pat := 1; pat < 1<<n; pat++ {
		id, ok := d.TripleID(patTriple[pat])
		if !ok {
			t.Fatalf("pattern triple %d missing", pat)
		}
		if mu := ex.Mu(id); !stat.ApproxEqual(mu, 1, 1e-6) {
			t.Errorf("pattern %v: µ = %v, want 1 (identical true/false distributions)", stat.Set64(pat), mu)
		}
	}
}
