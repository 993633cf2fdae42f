package core

import (
	"fmt"

	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// Incremental maintains PrecRec correctness probabilities under a stream of
// observations, in the spirit of online data fusion (Liu et al., PVLDB'11,
// which the paper cites as related work): each arriving (source, triple)
// claim updates the triple's log-odds in O(1), so current probabilities are
// queryable at any point without rescoring the whole dataset.
//
// Under the independence model the update is exact: a new provider Si moves
// the triple's contribution of Si from the non-provider factor
// (1−ri)/(1−qi) (if Si was in scope) to the provider factor ri/qi.
// Correlation-aware maintenance would need the full pattern and is not
// incremental; use the batch algorithms for that.
//
// The log ratios come from the table PrecRec reads (logRatios). Incremental
// streams have no subject index, so scope is either global (every registered
// source is accountable for every triple) or provider-only.
type Incremental struct {
	nSources int
	// baseLogOdds is the log-odds of a triple no source provides: the prior,
	// plus Σ log((1−r)/(1−q)) over every source if silence is penalized.
	// providerDelta[s] is what s providing adds to it.
	baseLogOdds   float64
	providerDelta []float64

	logOdds   map[triple.Triple]float64
	providers map[triple.Triple]map[triple.SourceID]bool
}

// NewIncremental builds an online fuser over nSources sources whose quality
// is given by params. penalizeSilence selects global scope semantics (every
// source not yet providing a triple counts against it).
func NewIncremental(params quality.Params, nSources int, penalizeSilence bool) (*Incremental, error) {
	if params == nil {
		return nil, fmt.Errorf("core: nil params")
	}
	if nSources <= 0 {
		return nil, fmt.Errorf("core: need at least one source")
	}
	inc := &Incremental{
		nSources:    nSources,
		baseLogOdds: stat.Logit(params.Alpha()),
		logOdds:     make(map[triple.Triple]float64),
		providers:   make(map[triple.Triple]map[triple.SourceID]bool),
	}
	lp, ls := logRatios(nSources, sourceRates(params))
	inc.providerDelta = lp
	if penalizeSilence {
		for s := range lp {
			inc.baseLogOdds += ls[s]
			lp[s] -= ls[s]
		}
	}
	return inc, nil
}

// Observe records that source s provides t, updating the triple's odds in
// O(1). Duplicate observations are idempotent. It returns the updated
// probability.
func (inc *Incremental) Observe(s triple.SourceID, t Triple) (float64, error) {
	if int(s) < 0 || int(s) >= inc.nSources {
		return 0, fmt.Errorf("core: source %d out of range", s)
	}
	provs, ok := inc.providers[t]
	if !ok {
		provs = make(map[triple.SourceID]bool)
		inc.providers[t] = provs
		inc.logOdds[t] = inc.baseLogOdds
	}
	if !provs[s] {
		provs[s] = true
		inc.logOdds[t] += inc.providerDelta[s]
	}
	return stat.Sigmoid(inc.logOdds[t]), nil
}

// Triple aliases the data model's triple for the incremental API.
type Triple = triple.Triple

// Probability returns the current Pr(t | observations so far); ok is false
// for triples never observed.
func (inc *Incremental) Probability(t Triple) (p float64, ok bool) {
	lo, ok := inc.logOdds[t]
	if !ok {
		return 0, false
	}
	return stat.Sigmoid(lo), true
}

// Providers returns how many sources currently provide t.
func (inc *Incremental) Providers(t Triple) int { return len(inc.providers[t]) }

// Len returns the number of distinct triples observed.
func (inc *Incremental) Len() int { return len(inc.logOdds) }
