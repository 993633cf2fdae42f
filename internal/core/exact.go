package core

import (
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// MaxExactCluster bounds the cluster width the exact algorithm accepts: the
// inclusion–exclusion sum enumerates 2^|St̄| subsets per cluster. Up to
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
type Exact struct {
	cfg   Config
	views []*clusterView
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
	return &Exact{cfg: cfg, views: tabledViews(cfg)}, nil
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
	r := rSum.Sum()
	q := qSum.Sum()
	// Estimated joint parameters can push the alternating sums slightly
	// negative; clamp so µ stays a positive finite ratio.
	if r < sumEps {
		r = sumEps
	}
	if q < sumEps {
		q = sumEps
	}
	return r / q
}

// Mu returns µ for a triple: the product of per-cluster ratios.
func (a *Exact) Mu(id triple.TripleID) float64 {
	mu := 1.0
	for _, cv := range a.views {
		pat := cv.patternFor(a.cfg.Dataset, a.cfg.Scope, id)
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
