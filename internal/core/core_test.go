package core

import (
	"math"
	"strings"
	"testing"

	"corrfuse/internal/dataset"
	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// randomSetup generates a correlated synthetic dataset with a gold-standard
// estimator, for properties that should hold on arbitrary data.
func randomSetup(t *testing.T, seed int64) (*triple.Dataset, *quality.Estimator, []triple.TripleID) {
	t.Helper()
	spec := dataset.SyntheticSpec{
		NumTrue:  80,
		NumFalse: 80,
		Seed:     seed,
		Sources: []dataset.SourceSpec{
			{Precision: 0.7, Recall: 0.5},
			{Precision: 0.6, Recall: 0.4},
			{Precision: 0.8, Recall: 0.3},
			{Precision: 0.5, Recall: 0.6},
			{Precision: 0.65, Recall: 0.45},
		},
		Groups: []dataset.GroupSpec{
			{Members: []int{0, 1}, OnTrue: true, Strength: 0.7},
			{Members: []int{2, 3}, OnTrue: false, Strength: 0.6},
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
	var ids []triple.TripleID
	for i := 0; i < d.NumTriples(); i++ {
		if len(d.Providers(triple.TripleID(i))) > 0 {
			ids = append(ids, triple.TripleID(i))
		}
	}
	return d, est, ids
}

// TestElasticConvergesToExact: at λ = |St̄| the elastic approximation equals
// the exact solution for every triple (Section 4.3).
func TestElasticConvergesToExact(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d, est, ids := randomSetup(t, seed)
		cfg := Config{Dataset: d, Params: est}
		ex, err := NewExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		el, err := NewElastic(cfg, d.NumSources()) // λ ≥ any |St̄|
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			got, want := el.Mu(id), ex.Mu(id)
			if !stat.ApproxEqual(got, want, 1e-9) {
				t.Errorf("seed %d triple %d: elastic(full) µ = %v, exact µ = %v", seed, id, got, want)
			}
		}
	}
}

// TestElasticLevelZeroVsAggressive: level-0 elastic differs from aggressive
// only by the level-0 adjustment (joint recall of the provider set instead
// of the independence product), so for singleton provider sets they agree.
func TestElasticLevelZeroSingleProvider(t *testing.T) {
	d, est, ids := randomSetup(t, 7)
	cfg := Config{Dataset: d, Params: est}
	ag, err := NewAggressive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	el, err := NewElastic(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, id := range ids {
		if len(d.Providers(id)) != 1 {
			continue
		}
		checked++
		// r_{St} = r_i for singletons, so level-0 = aggressive up to the
		// clamping of C⁺ᵢrᵢ in the provider term.
		got, want := el.Probability(id), ag.Probability(id)
		if math.Abs(got-want) > 0.25 {
			t.Errorf("triple %d: level-0 %v vs aggressive %v diverge unexpectedly", id, got, want)
		}
	}
	if checked == 0 {
		t.Skip("no singleton-provider triples generated")
	}
}

// TestClusterFactorization: declaring genuinely independent sources as
// separate clusters must give the same probabilities as one big cluster
// would under independence (the factorization is exact in that case).
func TestClusterFactorization(t *testing.T) {
	d := triple.NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	c := d.AddSource("C")
	mk := func(o string) triple.Triple {
		return triple.Triple{Subject: "e", Predicate: "p", Object: o}
	}
	d.Observe(a, mk("1"))
	d.Observe(b, mk("1"))
	d.Observe(c, mk("2"))
	d.SetLabel(mk("1"), triple.True)
	d.SetLabel(mk("2"), triple.False)
	d.SetLabel(mk("3"), triple.True)

	m := quality.NewManual(0.5)
	m.SetSource(a, 0.6, 0.2)
	m.SetSource(b, 0.5, 0.3)
	m.SetSource(c, 0.7, 0.1)
	for _, sub := range [][]triple.SourceID{{a, b}, {a, c}, {b, c}, {a, b, c}} {
		m.SetJointRecall(sub, quality.IndepJointRecall(m, sub))
		m.SetJointFPR(sub, quality.IndepJointFPR(m, sub))
	}

	one, err := NewExact(Config{Dataset: d, Params: m})
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewExact(Config{
		Dataset:  d,
		Params:   m,
		Clusters: [][]triple.SourceID{{a}, {b}, {c}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewExact(Config{
		Dataset:  d,
		Params:   m,
		Clusters: [][]triple.SourceID{{a, b}, {c}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		p1, p3, pm := one.Probability(id), three.Probability(id), mixed.Probability(id)
		if !stat.ApproxEqual(p1, p3, 1e-9) || !stat.ApproxEqual(p1, pm, 1e-9) {
			t.Errorf("triple %d: cluster partitions disagree: %v %v %v", i, p1, p3, pm)
		}
	}
}

// TestConfigValidation covers the cluster-partition checks.
func TestConfigValidation(t *testing.T) {
	d := triple.NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	m := quality.NewManual(0.5)
	m.SetSource(a, 0.5, 0.2)
	m.SetSource(b, 0.5, 0.2)

	cases := []struct {
		name     string
		clusters [][]triple.SourceID
	}{
		{"empty cluster", [][]triple.SourceID{{a}, {}}},
		{"duplicate source", [][]triple.SourceID{{a, b}, {b}}},
		{"missing source", [][]triple.SourceID{{a}}},
		{"unknown source", [][]triple.SourceID{{a, b, 7}}},
	}
	for _, tc := range cases {
		_, err := NewExact(Config{Dataset: d, Params: m, Clusters: tc.clusters})
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewExact(Config{Params: m}); err == nil {
		t.Error("nil dataset should fail")
	}
	if _, err := NewExact(Config{Dataset: d}); err == nil {
		t.Error("nil params should fail")
	}
	if _, err := NewElastic(Config{Dataset: d, Params: m}, -1); err == nil {
		t.Error("negative level should fail")
	}
}

// wideConfig is n sources under manual parameters in one cluster.
func wideConfig(n int) Config {
	d := triple.NewDataset()
	m := quality.NewManual(0.5)
	for i := 0; i < n; i++ {
		s := d.AddSource(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		m.SetSource(s, 0.5, 0.2)
	}
	return Config{Dataset: d, Params: m}
}

// TestExactWidthLimit: clusters wider than MaxExactCluster are refused.
func TestExactWidthLimit(t *testing.T) {
	cfg := wideConfig(MaxExactCluster + 1)
	if _, err := NewExact(cfg); err == nil {
		t.Error("expected width-limit error")
	}
	// Elastic accepts the same width.
	if _, err := NewElastic(cfg, 2); err != nil {
		t.Errorf("elastic should accept wide clusters: %v", err)
	}
}

// TestPatternWidthLimit: a pattern is a 64-bit mask over cluster members, so
// Elastic refuses a 65-wide cluster at construction (it used to panic inside
// Score); PrecRec and Aggressive read one log-ratio table per source, no
// pattern, and take any width.
func TestPatternWidthLimit(t *testing.T) {
	if _, err := NewElastic(wideConfig(maxClusterWidth), 2); err != nil {
		t.Errorf("elastic: %d-wide cluster refused: %v", maxClusterWidth, err)
	}
	_, err := NewElastic(wideConfig(maxClusterWidth+1), 2)
	if err == nil || !strings.Contains(err.Error(), "max 64") {
		t.Errorf("elastic: %d-wide cluster: err = %v, want the 64-member limit", maxClusterWidth+1, err)
	}
	// The same 65 sources in two clusters are fine.
	split := wideConfig(maxClusterWidth + 1)
	split.Clusters = [][]triple.SourceID{nil, {maxClusterWidth}}
	for s := 0; s < maxClusterWidth; s++ {
		split.Clusters[0] = append(split.Clusters[0], triple.SourceID(s))
	}
	if _, err := NewElastic(split, 2); err != nil {
		t.Errorf("elastic: clusters of 64 and 1 refused: %v", err)
	}
	if _, err := NewPrecRec(wideConfig(maxClusterWidth + 1)); err != nil {
		t.Errorf("PrecRec refused %d sources: %v", maxClusterWidth+1, err)
	}
	if _, err := NewAggressive(wideConfig(maxClusterWidth + 1)); err != nil {
		t.Errorf("Aggressive refused a %d-wide cluster: %v", maxClusterWidth+1, err)
	}
}

// TestScoreMatchesProbability: Score is Probability applied element-wise.
func TestScoreMatchesProbability(t *testing.T) {
	d, est, ids := randomSetup(t, 11)
	for _, build := range []func() (Algorithm, error){
		func() (Algorithm, error) { return NewPrecRec(Config{Dataset: d, Params: est}) },
		func() (Algorithm, error) { return NewExact(Config{Dataset: d, Params: est}) },
		func() (Algorithm, error) { return NewAggressive(Config{Dataset: d, Params: est}) },
		func() (Algorithm, error) { return NewElastic(Config{Dataset: d, Params: est}, 2) },
	} {
		alg, err := build()
		if err != nil {
			t.Fatal(err)
		}
		scores := alg.Score(ids)
		for i, id := range ids {
			if scores[i] != alg.Probability(id) {
				t.Errorf("%s: Score[%d] != Probability", alg.Name(), i)
			}
		}
	}
}

// TestProbabilitiesAreValid: every algorithm outputs values in [0, 1].
func TestProbabilitiesAreValid(t *testing.T) {
	for seed := int64(20); seed < 23; seed++ {
		d, est, ids := randomSetup(t, seed)
		algs := []Algorithm{}
		if a, err := NewPrecRec(Config{Dataset: d, Params: est}); err == nil {
			algs = append(algs, a)
		}
		if a, err := NewExact(Config{Dataset: d, Params: est}); err == nil {
			algs = append(algs, a)
		}
		if a, err := NewAggressive(Config{Dataset: d, Params: est}); err == nil {
			algs = append(algs, a)
		}
		for l := 0; l <= 3; l++ {
			if a, err := NewElastic(Config{Dataset: d, Params: est}, l); err == nil {
				algs = append(algs, a)
			}
		}
		for _, alg := range algs {
			for _, p := range alg.Score(ids) {
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("%s produced invalid probability %v", alg.Name(), p)
				}
			}
		}
	}
}

// TestScenario1Copying reproduces Scenario 1 of Example 4.1: n replicated
// sources should contribute like a single source, so a triple provided by
// all replicas gets a lower probability under the correlation model than
// under independence.
func TestScenario1Copying(t *testing.T) {
	d := triple.NewDataset()
	var srcs []triple.SourceID
	for _, n := range []string{"A", "B", "C"} {
		srcs = append(srcs, d.AddSource(n))
	}
	tt := triple.Triple{Subject: "e", Predicate: "p", Object: "v"}
	for _, s := range srcs {
		d.Observe(s, tt)
	}
	id, _ := d.TripleID(tt)

	const r, q = 0.6, 0.3
	m := quality.NewManual(0.5)
	for _, s := range srcs {
		m.SetSource(s, r, q)
	}
	// Replicas: every joint equals the single-source value.
	for _, sub := range [][]triple.SourceID{{srcs[0], srcs[1]}, {srcs[0], srcs[2]}, {srcs[1], srcs[2]}, srcs} {
		m.SetJointRecall(sub, r)
		m.SetJointFPR(sub, q)
	}
	pr, _ := NewPrecRec(Config{Dataset: d, Params: m})
	ex, _ := NewExact(Config{Dataset: d, Params: m})
	muIndep := math.Exp(pr.LogMu(id))
	muCorr := ex.Mu(id)
	if !stat.ApproxEqual(muIndep, math.Pow(r/q, 3), 1e-9) {
		t.Errorf("µ_indep = %v, want (r/q)^3 = %v", muIndep, math.Pow(r/q, 3))
	}
	if !stat.ApproxEqual(muCorr, r/q, 1e-9) {
		t.Errorf("µ_corr = %v, want r/q = %v (replicas count once)", muCorr, r/q)
	}
}

// TestScenario4Complementary reproduces Scenario 4: with complementary
// sources, a triple provided by a single source is *not* penalized by the
// silence of the others under the correlation model.
func TestScenario4Complementary(t *testing.T) {
	d := triple.NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	tt := triple.Triple{Subject: "e", Predicate: "p", Object: "v"}
	d.Observe(a, tt)
	// Keep B in scope by providing something else.
	d.Observe(b, triple.Triple{Subject: "e", Predicate: "p", Object: "w"})
	id, _ := d.TripleID(tt)

	const r, q = 0.5, 0.2
	m := quality.NewManual(0.5)
	m.SetSource(a, r, q)
	m.SetSource(b, r, q)
	// Perfectly complementary: never overlap.
	m.SetJointRecall([]triple.SourceID{a, b}, 0)
	m.SetJointFPR([]triple.SourceID{a, b}, 0)

	pr, _ := NewPrecRec(Config{Dataset: d, Params: m})
	ex, _ := NewExact(Config{Dataset: d, Params: m})
	// µ_corr = (r_a − r_ab)/(q_a − q_ab) = r/q; µ_indep = (r/q)·(1−r)/(1−q) < r/q.
	muCorr := ex.Mu(id)
	muIndep := math.Exp(pr.LogMu(id))
	if !stat.ApproxEqual(muCorr, r/q, 1e-9) {
		t.Errorf("µ_corr = %v, want r/q = %v", muCorr, r/q)
	}
	if muIndep >= muCorr {
		t.Errorf("independence should penalize the non-provider: %v >= %v", muIndep, muCorr)
	}
}

// TestMemoization: repeated scoring of triples with identical observation
// patterns hits the per-cluster cache and stays consistent.
func TestMemoization(t *testing.T) {
	d, est, ids := randomSetup(t, 31)
	ex, err := NewExact(Config{Dataset: d, Params: est})
	if err != nil {
		t.Fatal(err)
	}
	first := ex.Score(ids)
	second := ex.Score(ids)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("memoized rescoring diverged at %d", i)
		}
	}
}
