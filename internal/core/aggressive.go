package core

import (
	"corrfuse/internal/quality"
	"corrfuse/internal/triple"
)

// Aggressive is the linear-time approximation of Definition 4.5. Each
// source's recall and FPR are re-weighted by the correlation factors
//
//	C⁺ᵢ = r_{1..n} / (rᵢ · r_{1..n ∖ i})
//	C⁻ᵢ = q_{1..n} / (qᵢ · q_{1..n ∖ i})
//
// and the independent-model product formula is applied to the weighted rates:
//
//	µ_aggr = ∏_{St} (C⁺ᵢrᵢ)/(C⁻ᵢqᵢ) · ∏_{St̄} (1−C⁺ᵢrᵢ)/(1−C⁻ᵢqᵢ)
//
// With independent sources every factor is 1 and the result coincides with
// PrecRec (Corollary 4.6). Factors are computed within each cluster.
type Aggressive struct {
	cfg    Config
	views  []*clusterView
	cplus  [][]float64
	cminus [][]float64
}

// NewAggressive builds the aggressive approximation. It fails if any cluster
// has more than 64 members, the width of a pattern bitmask.
func NewAggressive(cfg Config) (*Aggressive, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := cfg.checkWidth("aggressive approximation", maxClusterWidth, "use a finer clustering"); err != nil {
		return nil, err
	}
	a := &Aggressive{cfg: cfg}
	for _, cl := range cfg.Clusters {
		a.views = append(a.views, newClusterView(cl, cfg.Dataset.NumSources()))
		cp, cm := quality.AggressiveFactors(cfg.Params, cl)
		a.cplus = append(a.cplus, cp)
		a.cminus = append(a.cminus, cm)
	}
	return a, nil
}

// Name implements Algorithm.
func (a *Aggressive) Name() string { return "PrecRecCorr-Aggr" }

// Factors exposes the per-cluster C⁺/C⁻ factors (Figure 3 of the paper).
// The outer index is the cluster, the inner index the member position.
func (a *Aggressive) Factors() (cplus, cminus [][]float64) { return a.cplus, a.cminus }

// clusterMu evaluates the weighted product for one cluster/pattern.
func (a *Aggressive) clusterMu(ci int, p pattern) float64 {
	cv := a.views[ci]
	mu := 1.0
	for _, i := range p.inScope.Elems() {
		s := cv.members[i]
		r := clampRate(a.cplus[ci][i] * a.cfg.Params.Recall(s))
		q := clampRate(a.cminus[ci][i] * a.cfg.Params.FPR(s))
		if p.providers.Contains(i) {
			mu *= r / q
		} else {
			mu *= (1 - r) / (1 - q)
		}
	}
	return mu
}

// Mu returns µ_aggr for a triple.
func (a *Aggressive) Mu(id triple.TripleID) float64 {
	mu := 1.0
	for ci, cv := range a.views {
		pat := cv.patternFor(a.cfg.Dataset, a.cfg.Scope, id)
		c := ci
		mu *= cv.muCached(pat, func(p pattern) float64 { return a.clusterMu(c, p) })
	}
	return mu
}

// Probability implements Algorithm.
func (a *Aggressive) Probability(id triple.TripleID) float64 {
	return muToProb(a.cfg.Params.Alpha(), a.Mu(id))
}

// Score implements Algorithm.
func (a *Aggressive) Score(ids []triple.TripleID) []float64 { return scoreAll(a, ids) }
