package core

import "corrfuse/internal/stat"

// MaxExactCluster bounds the cluster width the exact algorithm accepts: the
// inclusion–exclusion sum ranges over 2^|St̄| subsets per cluster. Up to
// quality.MaxTableWidth every term is a read from the cluster's dense joint
// table, and no default configuration builds a wider cluster; between the
// two limits a term is a Params call (for an Estimator a memoized bitset
// intersection under a lock), which is only there for callers that ask for
// such a cluster explicitly and can wait for it.
const MaxExactCluster = 30

// Exact is the exact correlation-aware model of Theorem 4.2. Within each
// cluster it evaluates the inclusion–exclusion expansions
//
//	Pr(Ot|t)  = Σ_{S*⊆St̄} (−1)^{|S*|} r_{St∪S*}     (Eq. 10)
//	Pr(Ot|¬t) = Σ_{S*⊆St̄} (−1)^{|S*|} q_{St∪S*}     (Eq. 11)
//
// and multiplies the per-cluster ratios µ_c = Pr(Ot|t)/Pr(Ot|¬t) across
// clusters (independence across clusters). With a single cluster holding all
// sources this is the paper's exact solution.
//
// Under ScopeGlobal every member is in scope, so St̄ is the complement of St
// and Eq. 10–11 are the superset Möbius inversion of r and q over the
// cluster's subset lattice. NewExact applies that inversion to each tabled
// cluster's joint table once — n·2ⁿ⁻¹ subtractions per side — and keeps µ
// for every provider mask, 8·2ⁿ bytes per cluster; scoring a triple is then
// one walk over its provider list plus one read per cluster, with no memo
// and no lock. Other scopes, and clusters too wide for a table, evaluate the
// expansion per distinct pattern behind a memo (clusterModel).
type Exact struct{ clusterModel }

// NewExact builds the exact model. It fails if any cluster is wider than
// MaxExactCluster, because the computation is exponential in cluster width.
func NewExact(cfg Config) (*Exact, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := cfg.checkWidth("exact solution", MaxExactCluster, "use Elastic or a finer clustering"); err != nil {
		return nil, err
	}
	a := &Exact{newClusterModel(cfg)}
	a.patternMu = a.clusterMu
	if a.mu != nil {
		a.buildMuTables()
	}
	return a, nil
}

// buildMuTables turns every tabled cluster's r and q into its µ table and
// drops them: under ScopeGlobal nothing else reads them.
func (a *Exact) buildMuTables() {
	total := 0
	for _, cv := range a.views {
		total += len(cv.r)
	}
	buf := make([]float64, total)
	for ci, cv := range a.views {
		if cv.r == nil {
			continue
		}
		n := len(cv.members)
		supersetMobius(cv.r, n)
		supersetMobius(cv.q, n)
		mu := buf[:len(cv.r):len(cv.r)]
		buf = buf[len(cv.r):]
		for m := range mu {
			mu[m] = clampedRatio(cv.r[m], cv.q[m])
		}
		a.mu[ci] = mu
		cv.r, cv.q = nil, nil
	}
}

// supersetMobius replaces g[m] by Σ_{m'⊇m} (−1)^{|m'∖m|} g[m'] for the n-bit
// masks, one bit at a time: with g = r this is Eq. 10 for the provider set m
// under global scope, with g = q Eq. 11.
func supersetMobius(g []float64, n int) {
	for b := 0; b < n; b++ {
		bit := 1 << b
		for m := range g {
			if m&bit == 0 {
				g[m] -= g[m|bit]
			}
		}
	}
}

// clampedRatio is µ_c from the two inclusion–exclusion sums. Estimated joint
// parameters can push the alternating sums slightly negative; the clamp
// keeps µ a positive finite ratio.
func clampedRatio(r, q float64) float64 {
	if r < sumEps {
		r = sumEps
	}
	if q < sumEps {
		q = sumEps
	}
	return r / q
}

// Name implements Algorithm.
func (a *Exact) Name() string { return "PrecRecCorr" }

// clusterMu computes µ_c for one cluster/pattern by full
// inclusion–exclusion over the in-scope non-providers.
func (a *Exact) clusterMu(ci int, p pattern) float64 {
	cv := a.views[ci]
	nonProviders := p.inScope.Minus(p.providers)
	var rSum, qSum stat.KahanSum
	nonProviders.Subsets(func(sub stat.Set64) bool {
		set := p.providers.Union(sub)
		sign := 1.0
		if sub.Len()%2 == 1 {
			sign = -1
		}
		rSum.Add(sign * cv.jointRecall(a.cfg.Params, set))
		qSum.Add(sign * cv.jointFPR(a.cfg.Params, set))
		return true
	})
	return clampedRatio(rSum.Sum(), qSum.Sum())
}
