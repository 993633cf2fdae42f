package core

import (
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

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
// expansion per distinct pattern behind a memo.
type Exact struct {
	cfg   Config
	views []*clusterView

	// mu[c] is cluster c's µ indexed by provider mask, under ScopeGlobal
	// and for a tabled cluster; nil otherwise. mu itself is nil outside
	// ScopeGlobal. clusterOf maps a source to its cluster.
	mu        [][]float64
	clusterOf []int32
}

// NewExact builds the exact model. It fails if any cluster is wider than
// MaxExactCluster, because the computation is exponential in cluster width.
func NewExact(cfg Config) (*Exact, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := cfg.checkWidth("exact solution", MaxExactCluster, "use Elastic or a finer clustering"); err != nil {
		return nil, err
	}
	a := &Exact{cfg: cfg, views: tabledViews(cfg)}
	if _, global := cfg.Scope.(triple.ScopeGlobal); global {
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
	a.mu = make([][]float64, len(a.views))
	a.clusterOf = make([]int32, a.cfg.Dataset.NumSources())
	for ci, cv := range a.views {
		for _, s := range cv.members {
			a.clusterOf[s] = int32(ci)
		}
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
func (a *Exact) clusterMu(cv *clusterView, p pattern) float64 {
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

// clusterMask is one cluster's provider mask for a triple.
type clusterMask struct {
	c    int32
	mask stat.Set64
}

// Mu returns µ for a triple: the product of per-cluster ratios, in cluster
// order.
func (a *Exact) Mu(id triple.TripleID) float64 {
	if a.mu == nil {
		mu := 1.0
		for _, cv := range a.views {
			pat := cv.patternFor(a.cfg.Dataset, a.cfg.Scope, id)
			mu *= cv.muCached(pat, func(p pattern) float64 { return a.clusterMu(cv, p) })
		}
		return mu
	}
	// The clusters the providers touch, with their masks, sorted by
	// cluster; every other cluster reads its all-absent entry.
	var buf [16]clusterMask
	touched := buf[:0]
	for _, s := range a.cfg.Dataset.Providers(id) {
		c := a.clusterOf[s]
		bit := stat.Set64(1) << a.views[c].pos[s]
		i := len(touched)
		for i > 0 && touched[i-1].c > c {
			i--
		}
		if i > 0 && touched[i-1].c == c {
			touched[i-1].mask |= bit
			continue
		}
		touched = append(touched, clusterMask{})
		copy(touched[i+1:], touched[i:])
		touched[i] = clusterMask{c, bit}
	}
	mu := 1.0
	for ci, cv := range a.views {
		var mask stat.Set64
		if len(touched) > 0 && touched[0].c == int32(ci) {
			mask = touched[0].mask
			touched = touched[1:]
		}
		if t := a.mu[ci]; t != nil {
			mu *= t[mask]
			continue
		}
		pat := pattern{providers: mask, inScope: cv.full}
		mu *= cv.muCached(pat, func(p pattern) float64 { return a.clusterMu(cv, p) })
	}
	return mu
}

// Probability implements Algorithm.
func (a *Exact) Probability(id triple.TripleID) float64 {
	return muToProb(a.cfg.Params.Alpha(), a.Mu(id))
}

// Score implements Algorithm.
func (a *Exact) Score(ids []triple.TripleID) []float64 { return scoreAll(a, ids) }
