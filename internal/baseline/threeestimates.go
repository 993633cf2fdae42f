package baseline

import (
	"math"

	"corrfuse/internal/triple"
)

// ThreeEstimatesOptions configures the 3-Estimates baseline.
type ThreeEstimatesOptions struct {
	// Iterations is the number of fixed-point rounds (default 20).
	Iterations int
	// Scope decides which non-providing sources cast negative votes.
	// Defaults to triple.ScopeGlobal{}.
	Scope triple.Scope
	// InitError is the initial per-source error factor (default 0.1).
	InitError float64
	// InitDifficulty is the initial per-triple difficulty (default 0.5).
	InitDifficulty float64
}

func (o *ThreeEstimatesOptions) normalize() {
	if o.Iterations <= 0 {
		o.Iterations = 20
	}
	if o.Scope == nil {
		o.Scope = triple.ScopeGlobal{}
	}
	if o.InitError <= 0 {
		o.InitError = 0.1
	}
	if o.InitDifficulty <= 0 {
		o.InitDifficulty = 0.5
	}
}

// ThreeEstimates implements the 3-Estimates algorithm of Galland et al.
// (WSDM'10), which iteratively estimates three quantities: the truth value
// θ_f of each fact, the error factor ε_s of each source, and the difficulty
// φ_f of each fact, under the model that source s errs on fact f with
// probability ε_s·φ_f.
//
// The original is specified for closed-world positive/negative claims; as in
// the paper's experiments we adapt it to open-world semantics: a source
// votes positively for the triples it provides and negatively for in-scope
// triples it does not provide. After each round ε and φ are renormalized
// into [0, 1], which the original authors report is essential for stability.
type ThreeEstimates struct {
	d     *triple.Dataset
	opts  ThreeEstimatesOptions
	theta []float64 // per-triple truth estimate
	eps   []float64 // per-source error factor
	phi   []float64 // per-triple difficulty
}

// NewThreeEstimates runs the fixed-point computation on all triples of d.
func NewThreeEstimates(d *triple.Dataset, opts ThreeEstimatesOptions) *ThreeEstimates {
	opts.normalize()
	a := &ThreeEstimates{
		d:     d,
		opts:  opts,
		theta: make([]float64, d.NumTriples()),
		eps:   make([]float64, d.NumSources()),
		phi:   make([]float64, d.NumTriples()),
	}
	a.run()
	return a
}

// votes returns, for triple id, the voting sources and their votes
// (true = positive vote).
func (a *ThreeEstimates) votes(id triple.TripleID) ([]triple.SourceID, []bool) {
	var srcs []triple.SourceID
	var vals []bool
	for s := 0; s < a.d.NumSources(); s++ {
		sid := triple.SourceID(s)
		if a.d.Provides(sid, id) {
			srcs = append(srcs, sid)
			vals = append(vals, true)
		} else if a.opts.Scope.InScope(a.d, sid, id) {
			srcs = append(srcs, sid)
			vals = append(vals, false)
		}
	}
	return srcs, vals
}

func (a *ThreeEstimates) run() {
	nT := a.d.NumTriples()
	nS := a.d.NumSources()
	for i := range a.eps {
		a.eps[i] = a.opts.InitError
	}
	for i := range a.phi {
		a.phi[i] = a.opts.InitDifficulty
	}
	// Initialize θ from voting.
	for i := 0; i < nT; i++ {
		srcs, vals := a.votes(triple.TripleID(i))
		pos := 0
		for _, v := range vals {
			if v {
				pos++
			}
		}
		if len(srcs) > 0 {
			a.theta[i] = float64(pos) / float64(len(srcs))
		}
	}

	for it := 0; it < a.opts.Iterations; it++ {
		// Update θ: probability the fact is true given ε, φ.
		for i := 0; i < nT; i++ {
			id := triple.TripleID(i)
			srcs, vals := a.votes(id)
			if len(srcs) == 0 {
				continue
			}
			sum := 0.0
			for j, s := range srcs {
				pErr := clamp01(a.eps[s] * a.phi[i])
				if vals[j] {
					sum += 1 - pErr
				} else {
					sum += pErr
				}
			}
			a.theta[i] = sum / float64(len(srcs))
		}
		// Update ε: per-source average claim error, weighted by difficulty.
		epsNum := make([]float64, nS)
		epsDen := make([]float64, nS)
		phiNum := make([]float64, nT)
		phiDen := make([]float64, nT)
		for i := 0; i < nT; i++ {
			id := triple.TripleID(i)
			srcs, vals := a.votes(id)
			for j, s := range srcs {
				var claimErr float64
				if vals[j] {
					claimErr = 1 - a.theta[i]
				} else {
					claimErr = a.theta[i]
				}
				epsNum[s] += claimErr
				epsDen[s] += a.phi[i]
				phiNum[i] += claimErr
				phiDen[i] += a.eps[s]
			}
		}
		for s := 0; s < nS; s++ {
			if epsDen[s] > 0 {
				a.eps[s] = epsNum[s] / epsDen[s]
			}
		}
		for i := 0; i < nT; i++ {
			if phiDen[i] > 0 {
				a.phi[i] = phiNum[i] / phiDen[i]
			}
		}
		normalize01(a.eps)
		normalize01(a.phi)
	}
}

// clamp01 bounds v to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// normalize01 rescales a slice linearly into [0, 1] when any value escapes
// the unit interval, as prescribed by the 3-Estimates authors.
func normalize01(xs []float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if len(xs) == 0 || (lo >= 0 && hi <= 1) {
		return
	}
	span := hi - lo
	if span == 0 {
		for i := range xs {
			xs[i] = clamp01(xs[i])
		}
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - lo) / span
	}
}

// Name implements the scorer convention.
func (a *ThreeEstimates) Name() string { return "3-Estimates" }

// Probability returns θ_f, the estimated truth of the triple.
func (a *ThreeEstimates) Probability(id triple.TripleID) float64 { return a.theta[id] }

// Score implements the scorer convention.
func (a *ThreeEstimates) Score(ids []triple.TripleID) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = a.theta[id]
	}
	return out
}
