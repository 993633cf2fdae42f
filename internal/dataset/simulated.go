package dataset

import (
	"fmt"

	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// This file simulates the three real-world datasets of Section 5, whose raw
// data is proprietary or not redistributable. Each simulator matches the
// published shape of its dataset — source count, gold-standard size, truth
// ratio, per-source quality bands, and the correlation structure reported in
// the paper's "Discovered correlations" discussion — so the fusion
// algorithms exercise the same regimes as in the paper.

// SimulatedReVerb mimics the REVERB ClueWeb extraction dataset: 6 extractors
// over 2407 gold triples (616 true, 1791 false) with fairly low precision
// and recall. Correlation structure (per §5): on true triples one group of 2
// and one group of 3 extractors are strongly correlated; on false triples
// two pairs are strongly correlated and one extractor is anti-correlated
// with every other (modeled by giving it a false-pool window mostly disjoint
// from the rest).
func SimulatedReVerb(seed int64) (*triple.Dataset, error) {
	spec := SyntheticSpec{
		NumTrue:       616,
		NumFalse:      1791,
		Seed:          seed,
		SubjectPrefix: "reverb",
		Sources: []SourceSpec{
			{Name: "TextRunner", Precision: 0.40, Recall: 0.45},
			{Name: "WOE-parse", Precision: 0.42, Recall: 0.50},
			{Name: "WOE-pos", Precision: 0.35, Recall: 0.40},
			{Name: "ReVerb", Precision: 0.50, Recall: 0.55},
			{Name: "ReVerb-lex", Precision: 0.48, Recall: 0.50},
			{Name: "OLLIE", Precision: 0.38, Recall: 0.35,
				FalseWindow: Window{Lo: 0.72, Hi: 1.0}},
		},
		Groups: []GroupSpec{
			{Members: []int{0, 1}, OnTrue: true, Strength: 0.75},
			{Members: []int{2, 3, 4}, OnTrue: true, Strength: 0.65},
			{Members: []int{0, 1}, OnTrue: false, Strength: 0.70},
			{Members: []int{3, 4}, OnTrue: false, Strength: 0.70},
		},
	}
	// Confine the non-OLLIE extractors' mistakes to the front of the
	// false pool so OLLIE's mistakes (back of the pool) are
	// anti-correlated with everyone else's.
	for i := 0; i < 5; i++ {
		spec.Sources[i].FalseWindow = Window{Lo: 0, Hi: 0.78}
	}
	return Generate(spec)
}

// SimulatedRestaurant mimics the RESTAURANT dataset: 7 high-precision
// sources over 93 gold triples (68 true, 25 false). Correlation structure
// (per §5): a group of 4 sources strongly correlated on true triples, one
// pair fairly strongly anti-correlated on true triples (disjoint windows),
// and a group of 6 correlated on false triples. scale multiplies the gold
// size for variance-reduction experiments; pass 1 for the paper's shape.
func SimulatedRestaurant(seed int64, scale int) (*triple.Dataset, error) {
	if scale < 1 {
		scale = 1
	}
	spec := SyntheticSpec{
		NumTrue:       68 * scale,
		NumFalse:      25 * scale,
		Seed:          seed,
		SubjectPrefix: "restaurant",
		Sources: []SourceSpec{
			{Name: "Yelp", Precision: 0.95, Recall: 0.80},
			{Name: "Foursquare", Precision: 0.93, Recall: 0.75},
			{Name: "OpenTable", Precision: 0.96, Recall: 0.70},
			{Name: "MechanicalTurk", Precision: 0.90, Recall: 0.85},
			{Name: "YellowPages", Precision: 0.92, Recall: 0.60,
				TrueWindow: Window{Lo: 0, Hi: 0.55}},
			{Name: "CitySearch", Precision: 0.88, Recall: 0.55,
				TrueWindow: Window{Lo: 0.55, Hi: 1.0}},
			{Name: "MenuPages", Precision: 0.94, Recall: 0.45},
		},
		Groups: []GroupSpec{
			// Four sources correlated on true triples.
			{Members: []int{0, 1, 2, 3}, OnTrue: true, Strength: 0.65},
			// Six sources correlated on false triples (common confusions).
			{Members: []int{0, 1, 2, 3, 4, 5}, OnTrue: false, Strength: 0.55},
		},
	}
	return Generate(spec)
}

// SimulatedBook mimics the BOOK dataset: abebooks.com seller sources
// providing book-author triples. The world has 225 gold books with two true
// authors each (≈ 482 correct gold triples in the paper) and a pool of
// plausible wrong authors per book; 333 sellers list books with long-tail
// coverage and varied accuracy, so several triples share each book subject
// and subject-scoped fusion has real negative evidence.
//
// Correlated clusters follow §5's "Discovered correlations": a cluster of 22
// sellers that copy each other outright (correlated on both true and false
// triples — the paper found the 22-cluster in both domains), clusters of 3
// and 2 correlated on true triples (shared cataloguing conventions), and
// low-accuracy copying clusters of 3, 2 and 2 whose correlation shows mostly
// on false triples.
func SimulatedBook(seed int64) (*triple.Dataset, error) {
	const (
		nSources = 333
		nBooks   = 225
	)
	rng := stat.NewRNG(seed ^ 0x5eedb00c)
	spec := EntitySpec{
		NumEntities:    nBooks,
		TruePerEntity:  2,
		FalsePerEntity: 6,
		Predicate:      "author",
		Seed:           seed,
		SubjectPrefix:  "book",
	}
	for i := 0; i < nSources; i++ {
		cov := 0.01 + 0.05*rng.Float64() // long tail: a few gold books each
		acc := 0.25 + 0.65*rng.Float64()
		if i < 30 {
			// A head of larger sellers.
			cov = 0.08 + 0.25*rng.Float64()
			acc = 0.35 + 0.60*rng.Float64()
		}
		claims := 1 + 0.5*rng.Float64()
		spec.Sources = append(spec.Sources, EntitySourceSpec{
			Name:            fmt.Sprintf("seller-%03d", i),
			Coverage:        cov,
			Accuracy:        acc,
			ClaimsPerEntity: claims,
		})
	}
	// Low-accuracy members for the false-copying clusters, so their
	// correlation manifests mostly on mistakes.
	for _, i := range []int{50, 51, 52, 60, 61, 70, 71} {
		spec.Sources[i].Accuracy = 0.15 + 0.15*rng.Float64()
	}
	members := func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	spec.Groups = []EntityGroupSpec{
		{Members: members(0, 22), Strength: 0.6},                // copying ring
		{Members: members(30, 33), Strength: 0.7, OnTrue: true}, // shared conventions
		{Members: members(40, 42), Strength: 0.8, OnTrue: true},
		{Members: members(50, 53), Strength: 0.7}, // mistake copiers
		{Members: members(60, 62), Strength: 0.8},
		{Members: members(70, 72), Strength: 0.8},
	}
	return GenerateEntities(spec)
}

// SyntheticCorrelated generates the Figure 7 workloads.
// When antiCorrelated is false: five sources of moderate quality, four of
// them strongly positively correlated on true triples (they tend to provide
// the same correct data while making independent mistakes — Scenario 2 of
// Example 4.1). When antiCorrelated is true: the sources are complementary
// (Scenario 4) — each covers its own, mildly overlapping slice of the
// domain, so both its correct data and its mistakes rarely coincide with
// another source's, and a triple provided by a single source should not be
// penalized for the silence of out-of-domain sources.
func SyntheticCorrelated(seed int64, antiCorrelated bool) (*triple.Dataset, error) {
	spec := SyntheticSpec{
		NumTrue:       500,
		NumFalse:      500,
		Seed:          seed,
		SubjectPrefix: "syn",
	}
	if antiCorrelated {
		// Staggered windows of width 0.3 at stride 0.175: neighbours
		// overlap a little, distant sources not at all.
		for i := 0; i < 5; i++ {
			lo := 0.175 * float64(i)
			w := Window{Lo: lo, Hi: lo + 0.3}
			spec.Sources = append(spec.Sources, SourceSpec{
				Precision:   0.65,
				Recall:      0.25,
				TrueWindow:  w,
				FalseWindow: w,
			})
		}
		return Generate(spec)
	}
	for i := 0; i < 5; i++ {
		spec.Sources = append(spec.Sources, SourceSpec{Precision: 0.65, Recall: 0.45})
	}
	spec.Groups = []GroupSpec{
		{Members: []int{0, 1, 2, 3}, OnTrue: true, Strength: 0.8},
	}
	return Generate(spec)
}
