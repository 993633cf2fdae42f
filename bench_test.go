// Benchmarks regenerating every table and figure of the paper's evaluation
// (E1–E14 in the section comments below). Each BenchmarkFig* runs
// the corresponding experiment end to end; the BenchmarkMethod* family
// measures per-method scoring cost on the simulated REVERB dataset,
// reproducing the *relative* runtimes of Figure 5b (Union ≪ PrecRec <
// 3-Estimates/LTM ≪ PrecRecCorr; elastic level 3 between PrecRec and exact).
//
// Run with: go test -bench=. -benchmem
package corrfuse_test

import (
	"fmt"
	"io"
	"testing"

	"corrfuse"
	"corrfuse/internal/baseline"
	"corrfuse/internal/cluster"
	"corrfuse/internal/core"
	"corrfuse/internal/dataset"
	"corrfuse/internal/experiments"
	"corrfuse/internal/quality"
	"corrfuse/internal/triple"
)

// --- E1/E2/E4: Figure 1b, 1c and 3 (running-example tables) ---------------

func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.PrintFig1b(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.PrintFig1c(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.PrintFig3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6–E8: Figure 4 (method suites on the simulated datasets) ------------

func benchFig4(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(name, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aReVerb(b *testing.B)     { benchFig4(b, "reverb") }
func BenchmarkFig4bRestaurant(b *testing.B) { benchFig4(b, "restaurant") }
func BenchmarkFig4cBook(b *testing.B)       { benchFig4(b, "book") }

// --- E9: Figure 5a (elastic level sweep) -----------------------------------

func BenchmarkFig5aElasticLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"reverb", "restaurant"} {
			if _, err := experiments.Fig5a(name, 1, 3); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E10: Figure 5b (runtime table); the BenchmarkMethod* family below
// provides the per-cell measurements. ---------------------------------------

func BenchmarkFig5bRuntimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := experiments.Fig5b(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11–E13: Figure 6 (synthetic sweeps, reduced repetitions) -------------

func benchSweep(b *testing.B, cfg experiments.SweepConfig) {
	b.Helper()
	cfg.Reps = 2 // full paper setting is 10; 2 keeps the bench tractable
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aLowPrecision(b *testing.B)  { benchSweep(b, experiments.Fig6a()) }
func BenchmarkFig6bHighPrecision(b *testing.B) { benchSweep(b, experiments.Fig6b()) }
func BenchmarkFig6cLowRecall(b *testing.B)     { benchSweep(b, experiments.Fig6c()) }

// --- E14: Figure 7 (correlated synthetic scenarios) ------------------------

func BenchmarkFig7Correlated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5b cells: per-method scoring cost on simulated REVERB ----------

// reverbFixture caches the dataset/estimator across benchmark runs.
type reverbFixture struct {
	d      *triple.Dataset
	est    *quality.Estimator
	ids    []triple.TripleID
	labels []bool
}

var reverbCache *reverbFixture

func reverbSetup(b *testing.B) *reverbFixture {
	b.Helper()
	if reverbCache != nil {
		return reverbCache
	}
	d, err := dataset.SimulatedReVerb(1)
	if err != nil {
		b.Fatal(err)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: experiments.DeriveAlpha(d)})
	if err != nil {
		b.Fatal(err)
	}
	fx := &reverbFixture{d: d, est: est}
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		if len(d.Providers(id)) > 0 {
			fx.ids = append(fx.ids, id)
			fx.labels = append(fx.labels, d.Label(id) == triple.True)
		}
	}
	reverbCache = fx
	return fx
}

func BenchmarkMethodUnion50(b *testing.B) {
	fx := reverbSetup(b)
	u, err := baseline.NewUnionK(fx.d, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Score(fx.ids)
	}
}

func BenchmarkMethodThreeEstimates(b *testing.B) {
	fx := reverbSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		te := baseline.NewThreeEstimates(fx.d, baseline.ThreeEstimatesOptions{})
		te.Score(fx.ids)
	}
}

func BenchmarkMethodLTM10Iter(b *testing.B) {
	fx := reverbSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := baseline.NewLTM(fx.d, baseline.LTMOptions{Iterations: 10, Seed: 1})
		m.Score(fx.ids)
	}
}

func BenchmarkMethodPrecRec(b *testing.B) {
	fx := reverbSetup(b)
	pr, err := core.NewPrecRec(core.Config{Dataset: fx.d, Params: fx.est})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Score(fx.ids)
	}
}

func BenchmarkMethodPrecRecCorrExact(b *testing.B) {
	fx := reverbSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := core.NewExact(core.Config{Dataset: fx.d, Params: fx.est})
		if err != nil {
			b.Fatal(err)
		}
		ex.Score(fx.ids)
	}
}

func BenchmarkMethodPrecRecCorrAggressive(b *testing.B) {
	fx := reverbSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ag, err := core.NewAggressive(core.Config{Dataset: fx.d, Params: fx.est})
		if err != nil {
			b.Fatal(err)
		}
		ag.Score(fx.ids)
	}
}

func BenchmarkMethodPrecRecCorrElastic3(b *testing.B) {
	fx := reverbSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el, err := core.NewElastic(core.Config{Dataset: fx.d, Params: fx.est}, 3)
		if err != nil {
			b.Fatal(err)
		}
		el.Score(fx.ids)
	}
}

// --- Ablations for design choices (pattern memo, elastic level, workers) ---

// BenchmarkAblationPatternMemoOff measures exact scoring without the benefit
// of cross-triple pattern sharing by rebuilding the algorithm per triple.
func BenchmarkAblationPatternMemoOff(b *testing.B) {
	fx := reverbSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range fx.ids[:200] {
			ex, err := core.NewExact(core.Config{Dataset: fx.d, Params: fx.est})
			if err != nil {
				b.Fatal(err)
			}
			ex.Probability(id)
		}
	}
}

// BenchmarkAblationPatternMemoOn is the memoized counterpart scoring the
// same 200 triples with one algorithm instance.
func BenchmarkAblationPatternMemoOn(b *testing.B) {
	fx := reverbSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := core.NewExact(core.Config{Dataset: fx.d, Params: fx.est})
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range fx.ids[:200] {
			ex.Probability(id)
		}
	}
}

// BenchmarkAblationElasticLevels shows the cost growth across λ (Prop 4.11:
// O(n^λ) per triple).
func BenchmarkAblationElasticLevels(b *testing.B) {
	fx := reverbSetup(b)
	for _, level := range []int{0, 1, 2, 3, 4} {
		level := level
		b.Run(levelName(level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				el, err := core.NewElastic(core.Config{Dataset: fx.d, Params: fx.est}, level)
				if err != nil {
					b.Fatal(err)
				}
				el.Score(fx.ids)
			}
		})
	}
}

func levelName(l int) string {
	return "level-" + string(rune('0'+l))
}

// BenchmarkAblationParallelScoring contrasts serial and parallel scoring of
// the exact model on the simulated BOOK dataset (the paper notes the
// per-term independence parallelizes well).
func BenchmarkAblationParallelScoring(b *testing.B) {
	d, err := dataset.SimulatedBook(1)
	if err != nil {
		b.Fatal(err)
	}
	scope := triple.NewScopeSubject(d)
	est, err := quality.NewEstimator(d, quality.Options{
		Alpha: experiments.DeriveAlpha(d), Scope: scope, Smoothing: 0.5, MinJointSupport: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	clusters := cluster.Cluster(est, cluster.Options{MaxClusterSize: 6})
	var ids []triple.TripleID
	for i := 0; i < d.NumTriples(); i++ {
		if len(d.Providers(triple.TripleID(i))) > 0 {
			ids = append(ids, triple.TripleID(i))
		}
	}
	for _, workers := range []int{1, 4, 0} {
		workers := workers
		name := "serial"
		switch workers {
		case 4:
			name = "workers-4"
		case 0:
			name = "workers-max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex, err := core.NewExact(core.Config{Dataset: d, Params: est, Scope: scope, Clusters: clusters})
				if err != nil {
					b.Fatal(err)
				}
				core.ParallelScore(ex, ids, workers)
			}
		})
	}
}

// --- The store-scale dataset the read-path benchmarks serve ----------------

// storeBenchOpts is the store-scale configuration: the exact
// correlation-aware method over forced correlation clusters — the paper's §5
// configuration for wide sources, without which the single-cluster
// inclusion–exclusion over 144 sources is intractable.
func storeBenchOpts() corrfuse.Options {
	return corrfuse.Options{
		Method:         corrfuse.PrecRecCorr,
		Smoothing:      0.5,
		Alpha:          0.6,
		Clustering:     corrfuse.ClusterAlways,
		MaxClusterSize: 6,
	}
}

// storeBenchCache holds the ≥50k-triple synthetic store-scale dataset (built
// once; the generator is deterministic).
var storeBenchCache *triple.Dataset

// storeBenchDataset synthesizes a store of ≥50k distinct triples from a wide
// source set — 48 groups of a copying pair plus an independent source (144
// sources), 40% labeled.
func storeBenchDataset(b *testing.B) *triple.Dataset {
	b.Helper()
	if storeBenchCache != nil {
		return storeBenchCache
	}
	const groups = 48
	d := triple.NewDataset()
	var copA, copB, ind [groups]triple.SourceID
	for g := 0; g < groups; g++ {
		copA[g] = d.AddSource(fmt.Sprintf("copierA-%d", g))
		copB[g] = d.AddSource(fmt.Sprintf("copierB-%d", g))
		ind[g] = d.AddSource(fmt.Sprintf("indep-%d", g))
	}
	const subjects = 13000
	n := 0
	for s := 0; s < subjects; s++ {
		sub := fmt.Sprintf("entity-%05d", s)
		for p := 0; p < 4; p++ {
			t := triple.Triple{Subject: sub, Predicate: fmt.Sprintf("p%d", p), Object: "v"}
			g := (s + p) % groups
			switch n % 5 {
			case 0, 1: // copied true-looking triple
				d.Observe(copA[g], t)
				d.Observe(copB[g], t)
			case 2: // corroborated by the independent source
				d.Observe(copA[g], t)
				d.Observe(copB[g], t)
				d.Observe(ind[g], t)
			case 3: // independent-only
				d.Observe(ind[g], t)
			case 4: // copied mistake candidate
				d.Observe(copA[g], t)
				d.Observe(copB[g], t)
			}
			if n%10 < 4 { // 40% labeled; mistakes false, the rest true
				if n%5 == 4 || (n%5 == 3 && n%20 >= 10) {
					d.SetLabel(t, triple.False)
				} else {
					d.SetLabel(t, triple.True)
				}
			}
			n++
		}
	}
	if d.NumTriples() < 50000 {
		b.Fatalf("benchmark dataset has %d triples, need >= 50k", d.NumTriples())
	}
	storeBenchCache = d
	return d
}

// BenchmarkEstimatorJointStats measures the bitset-backed joint statistics.
func BenchmarkEstimatorJointStats(b *testing.B) {
	d, err := dataset.SimulatedBook(1)
	if err != nil {
		b.Fatal(err)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.34, Smoothing: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	subset := []triple.SourceID{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the subset so the memo cache does not absorb the work.
		s := subset
		s[4] = triple.SourceID(5 + i%300)
		if _, ok := est.JointRecall(s); !ok {
			continue
		}
	}
}
