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
// That is PrecRec's factorised product over other rates, so it shares
// PrecRec's kernel and takes clusters of any width. With independent sources
// every factor is 1 and the result coincides with PrecRec (Corollary 4.6).
// Factors are computed within each cluster.
type Aggressive struct{ factorised }

// NewAggressive builds the aggressive approximation.
func NewAggressive(cfg Config) (*Aggressive, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.Dataset.NumSources()
	cplus, cminus := make([]float64, n), make([]float64, n)
	for _, cl := range cfg.Clusters {
		cp, cm := quality.AggressiveFactors(cfg.Params, cl)
		for i, s := range cl {
			cplus[s], cminus[s] = cp[i], cm[i]
		}
	}
	p := cfg.Params
	return &Aggressive{newFactorised(cfg, func(s triple.SourceID) (float64, float64) {
		return cplus[s] * p.Recall(s), cminus[s] * p.FPR(s)
	})}, nil
}

// Name implements Algorithm.
func (a *Aggressive) Name() string { return "PrecRecCorr-Aggr" }
