package core

import (
	"fmt"
	"testing"

	"corrfuse/internal/dataset"
	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// paramsPath strips the joint tables from cluster views, leaving the lookup
// every cluster used before the tables existed and a cluster wider than
// quality.MaxTableWidth still uses: one Params call (plus the independence
// fallback) per inclusion–exclusion term. Test-only: it is the reference the
// table path must equal bit for bit.
func paramsPath(views []*clusterView) {
	for _, cv := range views {
		cv.r, cv.q = nil, nil
	}
}

// tableCase is one (dataset, params, scope, clustering) the differential runs.
type tableCase struct {
	name string
	cfg  func(t *testing.T) Config // a fresh Params per call: no shared memo
}

func tableCases(t *testing.T) []tableCase {
	t.Helper()
	var cases []tableCase
	synth, err := dataset.Generate(dataset.SyntheticSpec{
		NumTrue: 150, NumFalse: 150, Seed: 1600,
		Sources: []dataset.SourceSpec{
			{Precision: 0.7, Recall: 0.5}, {Precision: 0.6, Recall: 0.4},
			{Precision: 0.8, Recall: 0.3}, {Precision: 0.5, Recall: 0.6},
			{Precision: 0.6, Recall: 0.5}, {Precision: 0.7, Recall: 0.4},
			{Precision: 0.9, Recall: 0.1},
		},
		Groups: []dataset.GroupSpec{
			{Members: []int{0, 1, 2}, OnTrue: true, Strength: 0.7},
			{Members: []int{3, 4}, OnTrue: false, Strength: 0.8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]dataset.EntitySourceSpec, 7)
	for i := range srcs {
		srcs[i] = dataset.EntitySourceSpec{Coverage: 0.3 + 0.08*float64(i), Accuracy: 0.55 + 0.05*float64(i), ClaimsPerEntity: 1.5}
	}
	entities, err := dataset.GenerateEntities(dataset.EntitySpec{
		NumEntities: 120, TruePerEntity: 2, FalsePerEntity: 4, Seed: 1602, Sources: srcs,
		Groups: []dataset.EntityGroupSpec{{Members: []int{1, 2, 5}, Strength: 0.8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	clusterings := [][][]triple.SourceID{nil, {{2, 0, 1}, {4, 3}, {6}, {5}}}
	for di, d := range []*triple.Dataset{synth, entities} {
		var half []triple.TripleID
		for i, id := range d.Labeled() {
			if i%2 == 0 {
				half = append(half, id)
			}
		}
		for _, scoped := range []bool{false, true} {
			for _, tuned := range []bool{false, true} {
				for ci, clusters := range clusterings {
					opts := quality.Options{Alpha: 0.4}
					var scope triple.Scope = triple.ScopeGlobal{}
					if scoped {
						scope = triple.NewScopeSubject(d)
					}
					opts.Scope = scope
					if tuned {
						opts.Smoothing, opts.MinJointSupport, opts.Train = 0.5, 3, half
					}
					cases = append(cases, tableCase{
						name: fmt.Sprintf("dataset %d scoped=%v tuned=%v clustering %d", di, scoped, tuned, ci),
						cfg: func(t *testing.T) Config {
							est, err := quality.NewEstimator(d, opts)
							if err != nil {
								t.Fatal(err)
							}
							return Config{Dataset: d, Params: est, Scope: scope, Clusters: clusters}
						},
					})
				}
			}
		}
	}
	// The paper's worked examples: explicitly given joint parameters.
	obama := dataset.Obama()
	for ci, clusters := range [][][]triple.SourceID{nil, {{1, 0}, {4, 2, 3}}} {
		cases = append(cases, tableCase{
			name: fmt.Sprintf("Examples 4.4/4.10 clustering %d", ci),
			cfg: func(t *testing.T) Config {
				return Config{Dataset: obama, Params: paperManualParams(t, obama), Clusters: clusters}
			},
		})
	}
	return cases
}

func providedIDs(d *triple.Dataset) []triple.TripleID {
	var ids []triple.TripleID
	for i := 0; i < d.NumTriples(); i++ {
		if len(d.Providers(triple.TripleID(i))) > 0 {
			ids = append(ids, triple.TripleID(i))
		}
	}
	return ids
}

// TestTablesEqualParamsPath: Exact and Elastic scores read from the dense
// joint tables are == (not ≈) the scores computed through the Params
// interface, single- and multi-cluster, on estimated and on given
// parameters. Exact reads the joint tables under a subject scope only;
// under ScopeGlobal it turns them into µ tables, which
// TestExactKernelMatchesEnumeration holds to the enumeration. The tabled side scores with ParallelScore, so -race also
// covers concurrent table reads.
func TestTablesEqualParamsPath(t *testing.T) {
	for _, tc := range tableCases(t) {
		type build func(Config) (Algorithm, []*clusterView, error)
		builds := []build{func(c Config) (Algorithm, []*clusterView, error) {
			a, err := NewExact(c)
			if err != nil {
				return nil, nil, err
			}
			return a, a.views, nil
		}}
		for _, level := range []int{0, 1, 3, 7} {
			builds = append(builds, func(c Config) (Algorithm, []*clusterView, error) {
				a, err := NewElastic(c, level)
				if err != nil {
					return nil, nil, err
				}
				return a, a.views, nil
			})
		}
		for _, b := range builds {
			tabled, views, err := b(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			if ex, ok := tabled.(*Exact); ok && ex.mu != nil {
				continue // µ tables: TestExactKernelMatchesEnumeration
			}
			for ci, cv := range views {
				if cv.r == nil || cv.q == nil {
					t.Fatalf("%s %s: cluster %d has no joint table", tc.name, tabled.Name(), ci)
				}
			}
			ref, refViews, err := b(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			paramsPath(refViews)
			ids := providedIDs(tc.cfg(t).Dataset)
			got, want := ParallelScore(tabled, ids, 4), ref.Score(ids)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s: triple %d scores %v from the tables, %v through Params", tc.name, tabled.Name(), ids[i], got[i], want[i])
				}
			}
		}
	}
}

// TestClusterMuAllocatesNothing: on the table path one inclusion–exclusion
// (2⁷ terms here; Exact enumerates under a subject scope) and one elastic
// evaluation allocate nothing.
func TestClusterMuAllocatesNothing(t *testing.T) {
	cfg := tableCases(t)[0].cfg(t)
	p := pattern{providers: stat.NewSet64(1, 4), inScope: stat.FullSet64(7)}
	scoped := cfg
	scoped.Scope = triple.NewScopeSubject(cfg.Dataset)
	ex, err := NewExact(scoped)
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += ex.clusterMu(0, p) }); n != 0 {
		t.Errorf("Exact.clusterMu: %v allocations per run, want 0", n)
	}
	el, err := NewElastic(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { sink += el.clusterMu(0, p) }); n != 0 {
		t.Errorf("Elastic.clusterMu: %v allocations per run, want 0", n)
	}
	_ = sink
}
