package core

import (
	"math"
	"testing"

	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// patternFor is the member scan: the observation pattern of triple id
// within the cluster under the given scope, from one Provides search and one
// scope check per member. It is the reference the provider walk is checked
// against.
func (cv *clusterView) patternFor(d *triple.Dataset, sc triple.Scope, id triple.TripleID) pattern {
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
		p := cv.patternFor(d, sc, id)
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
// provider walk gives every cluster the member scan's pattern for every
// triple, provided or not, and Exact, Elastic and Aggressive score every
// triple as the reference Mu (member scan, plain memo, no all-absent
// shortcut) does, serially and on four workers: == for Elastic and a scoped
// Exact; for a global Exact, whose µ tables are not bit-identical to the
// enumeration, µ within kernelRelTol and the same accept decision off a
// rounding tie; for Aggressive, whose log-ratio table is not bit-identical
// to the weighted product it replaced, µ within factorisedRelTol and the
// same decision off a tie.
func TestPatternWalkEqualsMemberScan(t *testing.T) {
	for _, tc := range tableCases(t) {
		cfg := tc.cfg(t)
		type model struct {
			alg       Algorithm
			mu        func(triple.TripleID) float64
			views     []*clusterView
			clusterMu func(ci int, p pattern) float64
			tol       float64 // 0: ==
		}
		var models []model
		ex, err := NewExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newExactRef(ex.cfg)
		exTol := 0.0
		if ex.mu != nil {
			exTol = kernelRelTol
		}
		models = append(models, model{ex, ex.Mu, ref.views, func(ci int, p pattern) float64 {
			mu, _, _ := ref.clusterMu(ci, p)
			return mu
		}, exTol})
		el, err := NewElastic(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{el, el.Mu, el.views, el.clusterMu, 0})
		ag, err := NewAggressive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		agRef := newRefAggressive(ag.cfg)
		models = append(models, model{ag, ag.Mu, agRef.views, agRef.clusterMu, factorisedRelTol})

		d, sc := ex.cfg.Dataset, ex.cfg.Scope
		ids := allIDs(d)
		if ex.mu != nil {
			for _, id := range ids {
				got := make([]stat.Set64, len(ex.views))
				for _, cm := range ex.providerMasks(d.Providers(id), nil) {
					got[cm.c] = cm.mask
				}
				for ci, cv := range ex.views {
					if w := cv.patternFor(d, sc, id); w.inScope != cv.full || got[ci] != w.providers {
						t.Fatalf("%s: triple %d cluster %d: walk's providers %v, member scan %+v", tc.name, id, ci, got[ci], w)
					}
				}
			}
		}
		for _, m := range models {
			ref := newRefMu(m.views, m.clusterMu)
			want := make([]float64, len(ids))
			for i, id := range ids {
				mu := ref.mu(d, sc, id)
				if got := m.mu(id); got != mu && !(math.Abs(got-mu) <= m.tol*mu) {
					t.Fatalf("%s %s: triple %d: µ %v, reference %v", tc.name, m.alg.Name(), id, got, mu)
				}
				want[i] = muToProb(cfg.Params.Alpha(), mu)
			}
			for _, workers := range []int{1, 4} {
				got := ParallelScore(m.alg, ids, workers)
				for i := range want {
					if m.tol > 0 {
						if (got[i] > 0.5) != (want[i] > 0.5) && math.Abs(want[i]-0.5) >= kernelTie {
							t.Fatalf("%s %s, %d workers: triple %d scores %v, reference %v: decisions differ off a tie", tc.name, m.alg.Name(), workers, ids[i], got[i], want[i])
						}
						continue
					}
					if got[i] != want[i] {
						t.Fatalf("%s %s, %d workers: triple %d scores %v, reference %v", tc.name, m.alg.Name(), workers, ids[i], got[i], want[i])
					}
				}
			}
		}
	}
}
