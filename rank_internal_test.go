package corrfuse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRadixRankingEqualsStableSort: the radix-sorted ranking is the stable
// sort of the ID-ordered provided triples by descending probability, on
// probabilities at the ends of the float range — 0, −0, 1, subnormals, the
// smallest normal, the neighbours of 0.5 and of 1 — in long runs of equal
// values, all tied, all distinct, with unprovided IDs interleaved, and on
// sizes where no pass or a single pass has work.
func TestRadixRankingEqualsStableSort(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 1, 5e-324, 2.5e-310, 2.2250738585072014e-308,
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), math.Nextafter(1, 0), 1e-300, 0.25}
	rng := rand.New(rand.NewSource(1))
	cases := map[string][]float64{"empty": nil, "one": {0.7}}
	for _, n := range []int{2, 100, 5000} {
		specials, runs, distinct, tied := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range specials {
			specials[i] = special[rng.Intn(len(special))]
			runs[i] = special[(i/(1+n/7))%len(special)]
			distinct[i] = rng.Float64()
			tied[i] = 0.5
		}
		cases[fmt.Sprintf("specials/%d", n)] = specials
		cases[fmt.Sprintf("runs/%d", n)] = runs
		cases[fmt.Sprintf("distinct/%d", n)] = distinct
		cases[fmt.Sprintf("tied/%d", n)] = tied
	}
	for name, probs := range cases {
		d := NewDataset()
		fr := &frozen{probs: probs, provided: make([]bool, len(probs)), accepted: make([]bool, len(probs))}
		var want []ScoredTriple
		for i, p := range probs {
			id := d.SetLabel(Triple{Subject: fmt.Sprint(i), Predicate: "p", Object: "o"}, Unknown)
			fr.provided[i] = i%5 != 3
			fr.accepted[i] = p > 0.5
			if fr.provided[i] {
				want = append(want, ScoredTriple{Triple: d.Triple(id), ID: id, Probability: p})
			}
		}
		slices.SortStableFunc(want, func(a, b ScoredTriple) int {
			switch {
			case a.Probability > b.Probability:
				return -1
			case a.Probability < b.Probability:
				return 1
			}
			return 0
		})
		got := fr.rankedResult(d).All
		if !slices.Equal(got, want) {
			t.Errorf("%s: radix ranking differs from the stable sort", name)
		}
	}
}
