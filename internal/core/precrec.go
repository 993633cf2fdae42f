package core

import (
	"math"

	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// factorised is the product model over one (r, q) pair per source,
//
//	µ = ∏_{Si ∈ St} ri/qi · ∏_{Si ∈ St̄} (1−ri)/(1−qi)
//
// where St are the sources providing t and St̄ the in-scope sources that do
// not: PrecRec over the sources' own rates, Aggressive over the weighted ones.
// It reads a per-source table of log ratios built once, and its cost is
// exponential in nothing.
//
// Under ScopeGlobal every non-provider is in scope, so log µ is the
// all-silent sum Σ ls plus lp − ls for each provider: one walk over the
// triple's provider list, with no logarithm, no search and no lock. Other
// scopes ask each source whether it provides the triple or is in scope.
type factorised struct {
	cfg Config
	// lp[s] = log(r/q) and ls[s] = log((1−r)/(1−q)) of source s's clamped
	// rates; silent is Σ ls, prior is logit α.
	lp, ls        []float64
	silent, prior float64
	global        bool
}

// newFactorised builds the model of a normalized config over the rates rate
// gives each source.
func newFactorised(cfg Config, rate func(triple.SourceID) (r, q float64)) factorised {
	f := factorised{cfg: cfg, prior: stat.Logit(cfg.Params.Alpha())}
	f.lp, f.ls = logRatios(cfg.Dataset.NumSources(), rate)
	for _, v := range f.ls {
		f.silent += v
	}
	_, f.global = cfg.Scope.(triple.ScopeGlobal)
	return f
}

// sourceRates is the rate function of the independence model: each source's
// own recall and FPR.
func sourceRates(p quality.Params) func(triple.SourceID) (r, q float64) {
	return func(s triple.SourceID) (float64, float64) { return p.Recall(s), p.FPR(s) }
}

// logRatios returns lp[s] = log(r/q) and ls[s] = log((1−r)/(1−q)) for the
// sources 0..n−1, r and q being rate(s) bounded by clampRate.
func logRatios(n int, rate func(triple.SourceID) (r, q float64)) (lp, ls []float64) {
	lp, ls = make([]float64, n), make([]float64, n)
	for s := range lp {
		r, q := rate(triple.SourceID(s))
		r, q = clampRate(r), clampRate(q)
		lp[s] = math.Log(r) - math.Log(q)
		ls[s] = math.Log(1-r) - math.Log(1-q)
	}
	return lp, ls
}

// LogMu returns log µ for a triple.
func (f *factorised) LogMu(id triple.TripleID) float64 {
	d := f.cfg.Dataset
	if f.global {
		logMu := f.silent
		for _, s := range d.Providers(id) {
			logMu += f.lp[s] - f.ls[s]
		}
		return logMu
	}
	logMu := 0.0
	for s := range f.lp {
		sid := triple.SourceID(s)
		switch {
		case d.Provides(sid, id):
			logMu += f.lp[s]
		case f.cfg.Scope.InScope(d, sid, id):
			logMu += f.ls[s]
		}
	}
	return logMu
}

// Mu returns µ for a triple.
func (f *factorised) Mu(id triple.TripleID) float64 { return math.Exp(f.LogMu(id)) }

// Probability implements Algorithm, adding log µ to the prior log-odds.
func (f *factorised) Probability(id triple.TripleID) float64 {
	return stat.Sigmoid(f.prior + f.LogMu(id))
}

// Score implements Algorithm.
func (f *factorised) Score(ids []triple.TripleID) []float64 { return scoreAll(f.Probability, ids) }

// PrecRec is the independent-source Bayesian model of Theorem 3.1: the
// factorised product over each source's recall ri and FPR qi.
type PrecRec struct{ factorised }

// NewPrecRec builds the independent model. Clusters in cfg are ignored —
// under independence the factorization is trivial.
func NewPrecRec(cfg Config) (*PrecRec, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &PrecRec{newFactorised(cfg, sourceRates(cfg.Params))}, nil
}

// Name implements Algorithm.
func (a *PrecRec) Name() string { return "PrecRec" }
