package cluster

import (
	"fmt"
	"slices"
	"testing"

	"corrfuse/internal/dataset"
	"corrfuse/internal/quality"
	"corrfuse/internal/triple"
)

// buildCopied creates three replicated sources and two independents over
// enough triples that the pairwise correlation is unambiguous.
func buildCopied(t *testing.T) *quality.Estimator {
	t.Helper()
	spec := dataset.SyntheticSpec{
		NumTrue:  300,
		NumFalse: 300,
		Seed:     42,
		Sources: []dataset.SourceSpec{
			{Precision: 0.7, Recall: 0.5},
			{Precision: 0.7, Recall: 0.5},
			{Precision: 0.7, Recall: 0.5},
			{Precision: 0.7, Recall: 0.5},
			{Precision: 0.7, Recall: 0.5},
		},
		Groups: []dataset.GroupSpec{
			{Members: []int{0, 1, 2}, OnTrue: true, Strength: 0.9},
			{Members: []int{0, 1, 2}, OnTrue: false, Strength: 0.9},
		},
	}
	d, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestClusterFindsCopyGroup(t *testing.T) {
	est := buildCopied(t)
	clusters := Cluster(est, Options{})
	// Expect {0,1,2} together and 3, 4 as singletons.
	var big []triple.SourceID
	singles := 0
	for _, c := range clusters {
		if len(c) > 1 {
			if big != nil {
				t.Fatalf("more than one multi-source cluster: %v", clusters)
			}
			big = c
		} else {
			singles++
		}
	}
	if len(big) != 3 || singles != 2 {
		t.Fatalf("clusters = %v, want {0,1,2} + 2 singletons", clusters)
	}
	want := map[triple.SourceID]bool{0: true, 1: true, 2: true}
	for _, s := range big {
		if !want[s] {
			t.Errorf("unexpected member %d in the copy cluster", s)
		}
	}
}

func TestClusterIsPartition(t *testing.T) {
	est := buildCopied(t)
	clusters := Cluster(est, Options{})
	seen := map[triple.SourceID]bool{}
	total := 0
	for _, c := range clusters {
		for _, s := range c {
			if seen[s] {
				t.Fatalf("source %d in two clusters", s)
			}
			seen[s] = true
			total++
		}
	}
	if total != est.Dataset().NumSources() {
		t.Errorf("partition covers %d of %d sources", total, est.Dataset().NumSources())
	}
}

func TestMaxClusterSizeRespected(t *testing.T) {
	est := buildCopied(t)
	clusters := Cluster(est, Options{MaxClusterSize: 2})
	for _, c := range clusters {
		if len(c) > 2 {
			t.Errorf("cluster %v exceeds max size 2", c)
		}
	}
}

func TestIndependentSourcesStaySingleton(t *testing.T) {
	spec := dataset.UniformSpec(6, 600, 0.5, 0.7, 0.5, 99)
	d, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	clusters := Cluster(est, Options{})
	for _, c := range clusters {
		if len(c) > 1 {
			t.Errorf("independent sources clustered together: %v", c)
		}
	}
}

// TestClusterFindsBothCorrelationSides: one group shares its true triples
// only (sources that copy each other's facts), one shares its false triples
// only (the paper's shared extraction rule: one rule, the same mistakes),
// and two sources are independent. Cluster must return exactly the two
// groups and two singletons, so it scores both sides of a pair: without the
// true-side z-score the first group is lost, without the false-side one the
// second.
func TestClusterFindsBothCorrelationSides(t *testing.T) {
	spec := dataset.SyntheticSpec{
		NumTrue: 400, NumFalse: 400, Seed: 8,
		Sources: []dataset.SourceSpec{
			{Precision: 0.7, Recall: 0.5}, {Precision: 0.7, Recall: 0.5}, {Precision: 0.7, Recall: 0.5},
			{Precision: 0.6, Recall: 0.5}, {Precision: 0.6, Recall: 0.5},
			{Precision: 0.7, Recall: 0.5}, {Precision: 0.7, Recall: 0.5},
		},
		Groups: []dataset.GroupSpec{
			{Members: []int{0, 1, 2}, OnTrue: true, Strength: 0.9},
			{Members: []int{3, 4}, OnTrue: false, Strength: 0.9},
		},
	}
	d, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := Cluster(est, Options{})
	want := [][]triple.SourceID{{0, 1, 2}, {3, 4}, {5}, {6}}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("clusters = %v, want %v", got, want)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Error("union failed")
	}
	if uf.find(0) == uf.find(3) {
		t.Error("disjoint sets merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Error("transitive union failed")
	}
	if uf.size[uf.find(0)] != 4 {
		t.Errorf("size = %d, want 4", uf.size[uf.find(0)])
	}
}

// plantedPair builds 100 true and 20 false labelled triples over three
// sources: a provides the true triples [0, aN), b provides [0, both) and
// [aN, aN+bN-both), and c provides every other triple, so c shares no
// triple with a or b and the pair (a, b) is the only one with support.
func plantedPair(t *testing.T, aN, bN, both int) *quality.Estimator {
	t.Helper()
	d := triple.NewDataset()
	a, b, c := d.AddSource("a"), d.AddSource("b"), d.AddSource("c")
	for i := 0; i < 100; i++ {
		tt := triple.Triple{Subject: fmt.Sprintf("t%d", i), Predicate: "p", Object: "v"}
		d.SetLabel(tt, triple.True)
		inA, inB := i < aN, i < both || (i >= aN && i < aN+bN-both)
		if inA {
			d.Observe(a, tt)
		}
		if inB {
			d.Observe(b, tt)
		}
		if !inA && !inB {
			d.Observe(c, tt)
		}
	}
	for i := 0; i < 20; i++ {
		tt := triple.Triple{Subject: fmt.Sprintf("f%d", i), Predicate: "p", Object: "v"}
		d.SetLabel(tt, triple.False)
		d.Observe(c, tt)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// defaults are the options Cluster runs with when given none.
func defaults() Options {
	var o Options
	o.normalize()
	return o
}

// TestDefaultThresholdMergesModeratePair pins the default Threshold: a pair
// co-providing 17 of 100 true triples where independence expects 6.25 has
// z = 4.3, in [3, 6), and must be merged at the default options.
func TestDefaultThresholdMergesModeratePair(t *testing.T) {
	est := plantedPair(t, 25, 25, 17)
	o := defaults()
	if z := pairStrength(est, 0, 1, o.MinSupport); z < 3 || z >= 6 {
		t.Fatalf("planted pair scores %v, want a z-score in [3, 6)", z)
	}
	got := Cluster(est, Options{})
	if want := [][]triple.SourceID{{0, 1}, {2}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("clusters = %v, want %v at the default threshold", got, want)
	}
}

// TestDefaultMinSupportScoresSmallPair pins the default MinSupport: a pair
// co-providing 12 labelled triples, in [8, 16), must be scored (z = 8.8)
// and merged at the default options.
func TestDefaultMinSupportScoresSmallPair(t *testing.T) {
	est := plantedPair(t, 12, 12, 12)
	o := defaults()
	if z := pairStrength(est, 0, 1, o.MinSupport); z < o.Threshold {
		t.Fatalf("pair with co-support 12 scores %v at the default MinSupport, want at least %v", z, o.Threshold)
	}
	got := Cluster(est, Options{})
	if want := [][]triple.SourceID{{0, 1}, {2}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("clusters = %v, want %v at the default MinSupport", got, want)
	}
}
