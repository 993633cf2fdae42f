package core

import (
	"fmt"
	"math/bits"

	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
)

// Elastic is Algorithm 1 of the paper: it starts from the aggressive
// approximation with the level-0 adjustment already applied,
//
//	R ← r_{St} · ∏_{Si∈St̄} (1 − C⁺ᵢrᵢ)
//	Q ← q_{St} · ∏_{Si∈St̄} (1 − C⁻ᵢqᵢ)
//
// and for each level l = 1..λ corrects every degree-(|St|+l) term with its
// exact coefficient:
//
//	R += (−1)^l · ( r_{St∪S*} − r_{St}·∏_{Si∈S*} C⁺ᵢrᵢ )   for all S*⊆St̄, |S*|=l
//	Q += (−1)^l · ( q_{St∪S*} − q_{St}·∏_{Si∈S*} C⁻ᵢqᵢ )
//
// µ = R/Q. At λ = |St̄| every coefficient is exact and the result equals the
// exact solution; the cost and the number of required joint parameters are
// O(n^λ) per distinct pattern (Proposition 4.11), behind the cluster walk's
// memo. A µ table over every provider mask, as Exact keeps, was measured and
// rejected: each entry costs O(n^λ) terms, and at level 3 over 20k uniform
// triples on one Xeon core it scored in 245 ms against the memo's 70 ms at
// width 16, and in 7.2 s against 0.32 s at width 20 (README, "Methods and
// what they cost").
type Elastic struct {
	clusterModel
	level         int
	cplus, cminus [][]float64
}

// NewElastic builds the elastic approximation at adjustment level λ ≥ 0.
// Level 0 applies only the initialization of Algorithm 1 (lines 1–2). It
// fails if any cluster has more than 64 members, the width of a pattern
// bitmask.
func NewElastic(cfg Config, level int) (*Elastic, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := cfg.checkWidth("elastic approximation", maxClusterWidth, "use a finer clustering"); err != nil {
		return nil, err
	}
	if level < 0 {
		return nil, fmt.Errorf("core: elastic level must be >= 0, got %d", level)
	}
	e := &Elastic{clusterModel: newClusterModel(cfg), level: level}
	e.patternMu = e.clusterMu
	for _, cl := range cfg.Clusters {
		cp, cm := quality.AggressiveFactors(cfg.Params, cl)
		e.cplus = append(e.cplus, cp)
		e.cminus = append(e.cminus, cm)
	}
	return e, nil
}

// Name implements Algorithm.
func (a *Elastic) Name() string { return fmt.Sprintf("PrecRecCorr-Lvl%d", a.level) }

// Level returns the adjustment level λ.
func (a *Elastic) Level() int { return a.level }

// clusterMu evaluates Algorithm 1 within one cluster for one pattern.
func (a *Elastic) clusterMu(ci int, p pattern) float64 {
	cv := a.views[ci]
	params := a.cfg.Params
	providers := p.providers
	nonProviders := p.inScope.Minus(p.providers)

	rSt := cv.jointRecall(params, providers)
	qSt := cv.jointFPR(params, providers)

	// Lines 1–2: aggressive form with level-0 adjustment.
	var rAcc, qAcc stat.KahanSum
	rInit, qInit := rSt, qSt
	for v := uint64(nonProviders); v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		s := cv.members[i]
		rInit *= 1 - stat.Clamp(a.cplus[ci][i]*params.Recall(s), 0, 1-probEps)
		qInit *= 1 - stat.Clamp(a.cminus[ci][i]*params.FPR(s), 0, 1-probEps)
	}
	rAcc.Add(rInit)
	qAcc.Add(qInit)

	// Lines 3–7: per-level corrections.
	maxLevel := a.level
	if maxLevel > nonProviders.Len() {
		maxLevel = nonProviders.Len()
	}
	for l := 1; l <= maxLevel; l++ {
		sign := 1.0
		if l%2 == 1 {
			sign = -1
		}
		nonProviders.SubsetsOfSize(l, func(sub stat.Set64) bool {
			set := providers.Union(sub)
			exactR := cv.jointRecall(params, set)
			exactQ := cv.jointFPR(params, set)
			approxR, approxQ := rSt, qSt
			for v := uint64(sub); v != 0; v &= v - 1 {
				i := bits.TrailingZeros64(v)
				s := cv.members[i]
				approxR *= a.cplus[ci][i] * params.Recall(s)
				approxQ *= a.cminus[ci][i] * params.FPR(s)
			}
			rAcc.Add(sign * (exactR - approxR))
			qAcc.Add(sign * (exactQ - approxQ))
			return true
		})
	}

	return clampedRatio(rAcc.Sum(), qAcc.Sum())
}
