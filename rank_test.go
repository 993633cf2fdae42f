package corrfuse_test

import (
	"slices"
	"testing"

	"corrfuse"
	"corrfuse/internal/dataset"
)

// tiedDataset has the property of the batch-fuse benchmark's dataset that
// matters to a ranking (3 385 provider patterns over 50 000 triples): far
// fewer distinct probabilities than triples. Six sources make at most 63
// patterns per model, over 8 000 triples.
func tiedDataset(t testing.TB) *corrfuse.Dataset {
	t.Helper()
	spec := dataset.SyntheticSpec{NumTrue: 4000, NumFalse: 4000, Seed: 3, SubjectPrefix: "fact"}
	for i := 0; i < 6; i++ {
		spec.Sources = append(spec.Sources, dataset.SourceSpec{
			Precision:   0.55 + 0.05*float64(i),
			Recall:      0.25 + 0.05*float64((i*5)%6),
			FalseWindow: dataset.Window{Lo: 0, Hi: 0.8},
		})
	}
	spec.Groups = []dataset.GroupSpec{
		{Members: []int{0, 1, 2}, OnTrue: true, Strength: 0.7},
		{Members: []int{3, 4}, OnTrue: false, Strength: 0.7},
	}
	d, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// refRanked is the ranking Fuse used to build, kept as its reference: every
// provided triple in ID order, then the accepted ones, each list sorted by
// descending probability with a stable sort.
func refRanked(m *corrfuse.Fuser) (all, accepted []corrfuse.ScoredTriple) {
	d := m.Dataset()
	probs, provided, acc := m.FrozenScores()
	for i, ok := range provided {
		if !ok {
			continue
		}
		st := corrfuse.ScoredTriple{Triple: d.Triple(corrfuse.TripleID(i)), ID: corrfuse.TripleID(i), Probability: probs[i]}
		all = append(all, st)
		if acc[i] {
			accepted = append(accepted, st)
		}
	}
	for _, list := range [][]corrfuse.ScoredTriple{all, accepted} {
		slices.SortStableFunc(list, func(a, b corrfuse.ScoredTriple) int {
			switch {
			case a.Probability > b.Probability:
				return -1
			case a.Probability < b.Probability:
				return 1
			}
			return 0
		})
	}
	return all, accepted
}

// TestRankingEqualsStableSort: the index sort with its ID tie-break returns
// the stable sort's lists element for element where nine probabilities in
// ten are tied, Accepted is a subsequence of All, each Fuse hands out lists
// of the caller's own, and a repeat Fuse allocates those and nothing else.
func TestRankingEqualsStableSort(t *testing.T) {
	d := tiedDataset(t)
	m, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorr})
	if err != nil {
		t.Fatal(err)
	}
	wantAll, wantAcc := refRanked(m)
	distinct := make(map[float64]struct{})
	for _, st := range wantAll {
		distinct[st.Probability] = struct{}{}
	}
	if len(wantAcc) == 0 || len(wantAcc) == len(wantAll) || 10*len(distinct) > len(wantAll) {
		t.Fatalf("%d triples, %d accepted, %d distinct probabilities: not the tied shape this test is for",
			len(wantAll), len(wantAcc), len(distinct))
	}
	for call := 0; call < 2; call++ {
		res, err := m.Fuse()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.All, wantAll) || !slices.Equal(res.Accepted, wantAcc) {
			t.Fatalf("call %d: ranking differs from the stable sort's", call)
		}
		next := 0
		for _, st := range res.All {
			if next < len(res.Accepted) && res.Accepted[next] == st {
				next++
			}
		}
		if next != len(res.Accepted) {
			t.Fatalf("Accepted is not a subsequence of All (matched %d of %d)", next, len(res.Accepted))
		}
		// The lists are the caller's: the next call must not see this.
		slices.Reverse(res.All)
		slices.Reverse(res.Accepted)
	}
	// The Result and its two lists. The parent commit kept both lists
	// for the model's life as well and copied them here: 3 allocations
	// too, over 2 x 64 B per triple pinned instead of 4 B.
	if allocs := testing.AllocsPerRun(5, func() { m.Fuse() }); allocs != 3 {
		t.Errorf("a repeat Fuse allocates %v times, want 3 (the Result and its two lists)", allocs)
	}
}
