package core

import (
	"testing"

	"corrfuse/internal/triple"
)

// refPatternFor is the member scan patternFor replaced under ScopeGlobal,
// kept as the reference: one Provides binary search and one scope check per
// member.
func refPatternFor(cv *clusterView, d *triple.Dataset, sc triple.Scope, id triple.TripleID) pattern {
	var p pattern
	for i, s := range cv.members {
		if d.Provides(s, id) {
			p.providers = p.providers.Add(i)
			p.inScope = p.inScope.Add(i)
		} else if sc.InScope(d, s, id) {
			p.inScope = p.inScope.Add(i)
		}
	}
	return p
}

// refMu is Mu as it was before the provider walk and the all-absent µ: the
// member-scan pattern and a plain per-cluster memo in front of clusterMu.
type refMu struct {
	views     []*clusterView
	clusterMu func(ci int, p pattern) float64
	memo      []map[pattern]float64
}

func newRefMu(views []*clusterView, clusterMu func(ci int, p pattern) float64) *refMu {
	r := &refMu{views: views, clusterMu: clusterMu, memo: make([]map[pattern]float64, len(views))}
	for ci := range r.memo {
		r.memo[ci] = make(map[pattern]float64)
	}
	return r
}

func (r *refMu) mu(d *triple.Dataset, sc triple.Scope, id triple.TripleID) float64 {
	mu := 1.0
	for ci, cv := range r.views {
		p := refPatternFor(cv, d, sc, id)
		v, ok := r.memo[ci][p]
		if !ok {
			v = r.clusterMu(ci, p)
			r.memo[ci][p] = v
		}
		mu *= v
	}
	return mu
}

// TestPatternWalkEqualsMemberScan: on every table case — two datasets, both
// scopes, estimated and given parameters, one cluster and several — the
// provider walk builds the member scan's pattern for every triple, provided
// or not, and Exact, Aggressive and Elastic score every triple == the
// reference Mu (member scan, plain memo, no all-absent shortcut), serially
// and on four workers.
func TestPatternWalkEqualsMemberScan(t *testing.T) {
	for _, tc := range tableCases(t) {
		cfg := tc.cfg(t)
		type model struct {
			alg       Algorithm
			mu        func(triple.TripleID) float64
			views     []*clusterView
			clusterMu func(ci int, p pattern) float64
		}
		var models []model
		ex, err := NewExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{ex, ex.Mu, ex.views, func(ci int, p pattern) float64 { return ex.clusterMu(ex.views[ci], p) }})
		ag, err := NewAggressive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{ag, ag.Mu, ag.views, ag.clusterMu})
		el, err := NewElastic(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{el, el.Mu, el.views, el.clusterMu})

		d, sc := ex.cfg.Dataset, ex.cfg.Scope
		ids := make([]triple.TripleID, d.NumTriples())
		for i := range ids {
			ids[i] = triple.TripleID(i)
		}
		for _, m := range models {
			ref := newRefMu(m.views, m.clusterMu)
			want := make([]float64, len(ids))
			for i, id := range ids {
				for ci, cv := range m.views {
					if got, w := cv.patternFor(d, sc, id), refPatternFor(cv, d, sc, id); got != w {
						t.Fatalf("%s %s: triple %d cluster %d: pattern %+v, member scan %+v", tc.name, m.alg.Name(), id, ci, got, w)
					}
				}
				mu := ref.mu(d, sc, id)
				if got := m.mu(id); got != mu {
					t.Fatalf("%s %s: triple %d: µ %v, reference %v", tc.name, m.alg.Name(), id, got, mu)
				}
				want[i] = muToProb(cfg.Params.Alpha(), mu)
			}
			for _, workers := range []int{1, 4} {
				got := ParallelScore(m.alg, ids, workers)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %s, %d workers: triple %d scores %v, reference %v", tc.name, m.alg.Name(), workers, ids[i], got[i], want[i])
					}
				}
			}
		}
	}
}
