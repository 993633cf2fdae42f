// Package quality estimates source quality and inter-source correlation from
// training data, following Sections 2.2 and 3.2 of "Fusing Data with
// Correlations" (SIGMOD'14).
//
// Quality of a single source Si is its precision pi = Pr(t | Si⊨t) and recall
// ri = Pr(Si⊨t | t). The false positive rate qi = Pr(Si⊨t | ¬t) is never
// counted directly from training data (Example 3.4 shows counting is biased
// by the quality of the other sources); it is derived from precision and
// recall via the Theorem 3.5 identity
//
//	qi = α/(1−α) · (1−pi)/pi · ri
//
// Correlation between a subset S* of sources is captured by the joint
// precision p_{S*} = Pr(t | S*⊨t) and joint recall r_{S*} = Pr(S*⊨t | t),
// with joint false positive rate derived by the same identity.
package quality

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"corrfuse/internal/triple"
)

// Params supplies the probabilistic parameters the fusion algorithms consume.
// Implementations: *Estimator (computed from labeled data) and *Manual
// (explicitly supplied, e.g. for the paper's worked examples).
type Params interface {
	// Alpha returns the a-priori probability that a triple is true.
	Alpha() float64
	// Recall returns ri for a single source.
	Recall(s triple.SourceID) float64
	// FPR returns qi for a single source.
	FPR(s triple.SourceID) float64
	// JointRecall returns r_{S*} for the subset. ok is false when the
	// training data gives the subset no support, in which case callers
	// should fall back to the independence assumption.
	JointRecall(subset []triple.SourceID) (r float64, ok bool)
	// JointFPR returns q_{S*}, derived from joint precision and recall.
	JointFPR(subset []triple.SourceID) (q float64, ok bool)
}

// Options configures an Estimator.
type Options struct {
	// Alpha is the a-priori probability that a triple is true.
	// Must be in (0, 1). The paper's experiments use 0.5.
	Alpha float64
	// Scope decides which sources are accountable for which triples.
	// Defaults to triple.ScopeGlobal{}.
	Scope triple.Scope
	// Smoothing is an add-k Laplace smoothing constant applied to the
	// precision and recall counts. Zero (the default) reproduces the
	// paper's worked examples exactly; a small value (e.g. 0.1) is
	// recommended for small training sets to avoid degenerate 0/1 rates.
	Smoothing float64
	// Train restricts estimation to the given labeled triples. Nil means
	// all labeled triples in the dataset.
	Train []triple.TripleID
	// MinJointSupport is the minimum number of training triples backing a
	// joint statistic for it to be reported; below it JointRecall and
	// JointFPR return ok=false, and the fusion algorithms fall back to
	// the independence product. 0 (the default, used by the worked
	// examples) only requires non-empty support. Sparse many-source
	// datasets benefit from a handful (the estimates for rare source
	// combinations are otherwise noise).
	MinJointSupport int
}

// Estimator computes per-source and joint quality metrics from the labeled
// triples of a dataset. It memoizes joint statistics, so it is cheap to
// query repeatedly, and it is safe for concurrent use: the memo tables are
// guarded by a mutex.
type Estimator struct {
	d     *triple.Dataset
	opts  Options
	train []triple.TripleID

	mu sync.Mutex // guards jointRec and jointPrec

	trueIDs  []triple.TripleID
	labelled []triple.TripleID

	prec []float64 // per-source precision
	rec  []float64 // per-source recall
	fpr  []float64 // per-source derived FPR

	// provLab[s] is a bitset over positions of e.labelled marking the
	// labeled triples source s provides; scopeLab[s] marks the labeled
	// triples in s's scope; labTrue marks the true ones. They make joint
	// statistics O(sources · labeled/64) per subset. Under global scope every
	// scopeLab[s] is one shared bitset; none of them is ever written after
	// buildBitsets.
	provLab  [][]uint64
	scopeLab [][]uint64
	labTrue  []uint64

	// provAll[s] and provTrue[s] count the labeled triples source s
	// provides, and the true ones among them, regardless of scope: the
	// per-source half of PairCounts, counted once.
	provAll  []int
	provTrue []int

	jointRec  map[string]jointStat
	jointPrec map[string]jointStat
}

type jointStat struct {
	v  float64
	ok bool
}

// NewEstimator builds an estimator for d. It panics if Alpha is outside
// (0, 1); it returns an error if Train names a triple ID outside d or names
// one twice (it would be counted once per occurrence), and if the training
// set lacks true or false triples: with no true triple recall is undefined,
// and with no false triple every triple would score p = 1.
func NewEstimator(d *triple.Dataset, opts Options) (*Estimator, error) {
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		panic(fmt.Sprintf("quality: Alpha %v outside (0,1)", opts.Alpha))
	}
	if opts.Scope == nil {
		opts.Scope = triple.ScopeGlobal{}
	}
	train := opts.Train
	if train == nil {
		train = d.Labeled()
	} else if err := checkTrain(d, train); err != nil {
		return nil, err
	}
	e := &Estimator{
		d:         d,
		opts:      opts,
		train:     train,
		jointRec:  make(map[string]jointStat),
		jointPrec: make(map[string]jointStat),
	}
	for _, id := range train {
		switch d.Label(id) {
		case triple.True:
			e.trueIDs = append(e.trueIDs, id)
			e.labelled = append(e.labelled, id)
		case triple.False:
			e.labelled = append(e.labelled, id)
		}
	}
	if nt, nf := len(e.trueIDs), len(e.labelled)-len(e.trueIDs); nt == 0 || nf == 0 {
		return nil, fmt.Errorf("quality: training set has %d true and %d false triples; it needs at least one of each", nt, nf)
	}
	e.buildBitsets()
	e.computeSingles()
	return e, nil
}

// checkTrain rejects a caller-supplied training set that names a triple ID
// outside d or names one more than once.
func checkTrain(d *triple.Dataset, train []triple.TripleID) error {
	seen := make([]bool, d.NumTriples())
	for _, id := range train {
		if id < 0 || int(id) >= len(seen) {
			return fmt.Errorf("quality: Train ID %d outside the dataset's %d triples", id, len(seen))
		}
		if seen[id] {
			return fmt.Errorf("quality: Train ID %d listed twice", id)
		}
		seen[id] = true
	}
	return nil
}

// buildBitsets indexes provider membership and scope over the labeled
// triples. Under global scope every source is accountable for every labeled
// triple, so all sources share one scope bitset.
func (e *Estimator) buildBitsets() {
	words := (len(e.labelled) + 63) / 64
	n := e.d.NumSources()
	e.labTrue = make([]uint64, words)
	e.provLab = make([][]uint64, n)
	e.scopeLab = make([][]uint64, n)
	prov := make([]uint64, n*words)
	for s := range e.provLab {
		e.provLab[s] = prov[s*words : (s+1)*words : (s+1)*words]
	}
	_, global := e.opts.Scope.(triple.ScopeGlobal)
	if global {
		all := make([]uint64, words)
		for pos := range e.labelled {
			all[pos/64] |= 1 << uint(pos%64)
		}
		for s := range e.scopeLab {
			e.scopeLab[s] = all
		}
	} else {
		for s := range e.scopeLab {
			e.scopeLab[s] = make([]uint64, words)
		}
	}
	for pos, id := range e.labelled {
		w, b := pos/64, uint(pos%64)
		if e.d.Label(id) == triple.True {
			e.labTrue[w] |= 1 << b
		}
		for _, s := range e.d.Providers(id) {
			e.provLab[s][w] |= 1 << b
		}
		if global {
			continue
		}
		for s := 0; s < n; s++ {
			if e.opts.Scope.InScope(e.d, triple.SourceID(s), id) {
				e.scopeLab[s][w] |= 1 << b
			}
		}
	}
}

// intersectProviders ANDs the provider bitsets of the subset into dst.
func (e *Estimator) intersectProviders(subset []triple.SourceID, dst []uint64) {
	copy(dst, e.provLab[subset[0]])
	for _, s := range subset[1:] {
		bs := e.provLab[s]
		for w := range dst {
			dst[w] &= bs[w]
		}
	}
}

// intersectScopes ANDs the scope bitsets of the subset into dst.
func (e *Estimator) intersectScopes(subset []triple.SourceID, dst []uint64) {
	copy(dst, e.scopeLab[subset[0]])
	for _, s := range subset[1:] {
		bs := e.scopeLab[s]
		for w := range dst {
			dst[w] &= bs[w]
		}
	}
}

func popcount(bits []uint64) int {
	n := 0
	for _, w := range bits {
		n += onesCount64(w)
	}
	return n
}

func popcountAnd(a, b []uint64) int {
	n := 0
	for w := range a {
		n += onesCount64(a[w] & b[w])
	}
	return n
}

// computeSingles fills the per-source precision/recall/FPR tables from the
// bitsets buildBitsets indexed: a source's three counts are popcounts over
// the labeled triples in its scope — those it provides, those it provides
// that are true, and the true ones. The same pass counts what the source
// provides regardless of scope, for PairCounts.
func (e *Estimator) computeSingles() {
	n := e.d.NumSources()
	e.prec = make([]float64, n)
	e.rec = make([]float64, n)
	e.fpr = make([]float64, n)
	e.provAll = make([]int, n)
	e.provTrue = make([]int, n)
	k := e.opts.Smoothing
	for s := 0; s < n; s++ {
		prov, scope := e.provLab[s], e.scopeLab[s]
		var provided, providedTrue, inScopeTrue int
		for w, sc := range scope {
			e.provAll[s] += onesCount64(prov[w])
			e.provTrue[s] += onesCount64(prov[w] & e.labTrue[w])
			ps := prov[w] & sc
			provided += onesCount64(ps)
			providedTrue += onesCount64(ps & e.labTrue[w])
			inScopeTrue += onesCount64(sc & e.labTrue[w])
		}
		e.prec[s] = safeRatio(float64(providedTrue)+k, float64(provided)+2*k)
		e.rec[s] = safeRatio(float64(providedTrue)+k, float64(inScopeTrue)+2*k)
		e.fpr[s] = DeriveFPR(e.opts.Alpha, e.prec[s], e.rec[s])
	}
}

// safeRatio returns num/den, or 0 when den is 0.
func safeRatio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// DeriveFPR computes q = α/(1−α) · (1−p)/p · r (Theorem 3.5), clamped to
// [0, 1]. A source with p = 0 is maximally bad; we return 1.
func DeriveFPR(alpha, p, r float64) float64 {
	if p <= 0 {
		return 1
	}
	q := alpha / (1 - alpha) * (1 - p) / p * r
	if q > 1 {
		return 1
	}
	if q < 0 {
		return 0
	}
	return q
}

// Dataset returns the dataset this estimator was built on.
func (e *Estimator) Dataset() *triple.Dataset { return e.d }

// Scope returns the scope used for estimation.
func (e *Estimator) Scope() triple.Scope { return e.opts.Scope }

// Alpha implements Params.
func (e *Estimator) Alpha() float64 { return e.opts.Alpha }

// Precision returns pi for source s.
func (e *Estimator) Precision(s triple.SourceID) float64 { return e.prec[s] }

// Recall implements Params.
func (e *Estimator) Recall(s triple.SourceID) float64 { return e.rec[s] }

// FPR implements Params.
func (e *Estimator) FPR(s triple.SourceID) float64 { return e.fpr[s] }

// subsetKey builds a canonical cache key for a source subset.
func subsetKey(subset []triple.SourceID) string {
	ids := make([]int, len(subset))
	for i, s := range subset {
		ids[i] = int(s)
	}
	sort.Ints(ids)
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// JointPrecision returns p_{S*}: among labeled triples provided by every
// source in the subset, the fraction that are true. ok is false when no
// labeled triple is provided by all of them.
func (e *Estimator) JointPrecision(subset []triple.SourceID) (float64, bool) {
	if len(subset) == 0 {
		return 0, false
	}
	if len(subset) == 1 {
		return e.prec[subset[0]], true
	}
	key := subsetKey(subset)
	e.mu.Lock()
	if st, hit := e.jointPrec[key]; hit {
		e.mu.Unlock()
		return st.v, st.ok
	}
	e.mu.Unlock()
	inter := make([]uint64, len(e.labTrue))
	e.intersectProviders(subset, inter)
	all := popcount(inter)
	allTrue := popcountAnd(inter, e.labTrue)
	st := jointStat{ok: all > e.minSupport()}
	if st.ok {
		st.v = float64(allTrue) / float64(all)
	}
	e.mu.Lock()
	e.jointPrec[key] = st
	e.mu.Unlock()
	return st.v, st.ok
}

// JointRecall implements Params: r_{S*} = |true triples provided by all| /
// |true triples in the scope of all|, the scope-aware reading of §2.2 ("the
// recall of a source should be calculated with respect to the scope of its
// input"); with the default global scope the denominator is all true
// triples. ok is false when the subset is empty or no true triple lies in
// the joint scope.
func (e *Estimator) JointRecall(subset []triple.SourceID) (float64, bool) {
	if len(subset) == 0 {
		return 0, false
	}
	if len(subset) == 1 {
		return e.rec[subset[0]], true
	}
	key := subsetKey(subset)
	e.mu.Lock()
	if st, hit := e.jointRec[key]; hit {
		e.mu.Unlock()
		return st.v, st.ok
	}
	e.mu.Unlock()
	inter := make([]uint64, len(e.labTrue))
	e.intersectProviders(subset, inter)
	allTrue := popcountAnd(inter, e.labTrue)
	e.intersectScopes(subset, inter)
	scopeTrue := popcountAnd(inter, e.labTrue)
	st := jointStat{ok: scopeTrue > e.minSupport()}
	if st.ok {
		st.v = float64(allTrue) / float64(scopeTrue)
	}
	e.mu.Lock()
	e.jointRec[key] = st
	e.mu.Unlock()
	return st.v, st.ok
}

// minSupport returns the support floor for joint statistics (at least 0,
// meaning "non-empty").
func (e *Estimator) minSupport() int {
	if e.opts.MinJointSupport > 1 {
		return e.opts.MinJointSupport - 1
	}
	return 0
}

// JointFPR implements Params: q_{S*} derived from joint precision and joint
// recall via Theorem 3.5. ok is false when the joint precision has no
// support in the training data.
func (e *Estimator) JointFPR(subset []triple.SourceID) (float64, bool) {
	if len(subset) == 1 {
		return e.fpr[subset[0]], true
	}
	p, pok := e.JointPrecision(subset)
	if !pok {
		return 0, false
	}
	r, rok := e.JointRecall(subset)
	if !rok {
		return 0, false
	}
	return DeriveFPR(e.Alpha(), p, r), true
}

// onesCount64 is math/bits.OnesCount64; aliased here to keep the import list
// tidy in one place.
func onesCount64(w uint64) int { return bits.OnesCount64(w) }

// Manual is a Params implementation with explicitly supplied values, used in
// tests that reproduce the paper's worked examples and in simulations where
// the true generative parameters are known.
type Manual struct {
	Prior   float64
	Recalls map[triple.SourceID]float64
	FPRs    map[triple.SourceID]float64
	// JointRecalls and JointFPRs are keyed by canonical subset key; use
	// SetJointRecall / SetJointFPR to populate them.
	JointRecalls map[string]float64
	JointFPRs    map[string]float64
}

// NewManual returns an empty Manual with the given prior α.
func NewManual(alpha float64) *Manual {
	return &Manual{
		Prior:        alpha,
		Recalls:      make(map[triple.SourceID]float64),
		FPRs:         make(map[triple.SourceID]float64),
		JointRecalls: make(map[string]float64),
		JointFPRs:    make(map[string]float64),
	}
}

// SetSource sets the recall and FPR of a single source.
func (m *Manual) SetSource(s triple.SourceID, recall, fpr float64) {
	m.Recalls[s] = recall
	m.FPRs[s] = fpr
}

// SetJointRecall records r_{S*} for a subset.
func (m *Manual) SetJointRecall(subset []triple.SourceID, r float64) {
	m.JointRecalls[subsetKey(subset)] = r
}

// SetJointFPR records q_{S*} for a subset.
func (m *Manual) SetJointFPR(subset []triple.SourceID, q float64) {
	m.JointFPRs[subsetKey(subset)] = q
}

// Alpha implements Params.
func (m *Manual) Alpha() float64 { return m.Prior }

// Recall implements Params.
func (m *Manual) Recall(s triple.SourceID) float64 { return m.Recalls[s] }

// FPR implements Params.
func (m *Manual) FPR(s triple.SourceID) float64 { return m.FPRs[s] }

// JointRecall implements Params. Singleton subsets fall back to Recall;
// larger subsets must have been set explicitly.
func (m *Manual) JointRecall(subset []triple.SourceID) (float64, bool) {
	if len(subset) == 1 {
		r, ok := m.Recalls[subset[0]]
		return r, ok
	}
	r, ok := m.JointRecalls[subsetKey(subset)]
	return r, ok
}

// JointFPR implements Params.
func (m *Manual) JointFPR(subset []triple.SourceID) (float64, bool) {
	if len(subset) == 1 {
		q, ok := m.FPRs[subset[0]]
		return q, ok
	}
	q, ok := m.JointFPRs[subsetKey(subset)]
	return q, ok
}

// IndepJointRecall returns the joint recall a set of independent sources
// would have: the product of individual recalls.
func IndepJointRecall(p Params, subset []triple.SourceID) float64 {
	out := 1.0
	for _, s := range subset {
		out *= p.Recall(s)
	}
	return out
}

// IndepJointFPR returns the joint FPR under independence: the product of
// individual FPRs.
func IndepJointFPR(p Params, subset []triple.SourceID) float64 {
	out := 1.0
	for _, s := range subset {
		out *= p.FPR(s)
	}
	return out
}

// CorrelationTrue returns the correlation factor C_{S*} = r_{S*} / ∏ ri
// (Eq. 16). Values > 1 indicate positive correlation on true triples, < 1
// negative correlation, 1 independence. ok is false when either the joint
// recall is unsupported or the independence product is zero.
func CorrelationTrue(p Params, subset []triple.SourceID) (float64, bool) {
	r, ok := p.JointRecall(subset)
	if !ok {
		return 1, false
	}
	ind := IndepJointRecall(p, subset)
	if ind == 0 {
		return 1, false
	}
	return r / ind, true
}

// CorrelationFalse returns C¬_{S*} = q_{S*} / ∏ qi (Eq. 17).
func CorrelationFalse(p Params, subset []triple.SourceID) (float64, bool) {
	q, ok := p.JointFPR(subset)
	if !ok {
		return 1, false
	}
	ind := IndepJointFPR(p, subset)
	if ind == 0 {
		return 1, false
	}
	return q / ind, true
}

// AggressiveFactors returns C⁺ᵢ and C⁻ᵢ (Eq. 14–15) for every source in
// group, computed within the group:
//
//	C⁺ᵢ = r_G / (rᵢ · r_{G∖{i}})    C⁻ᵢ = q_G / (qᵢ · q_{G∖{i}})
//
// When a joint parameter lacks support or a denominator is zero, the factor
// falls back to 1 (independence), the safe neutral value (Corollary 4.6).
func AggressiveFactors(p Params, group []triple.SourceID) (cplus, cminus []float64) {
	n := len(group)
	cplus = make([]float64, n)
	cminus = make([]float64, n)
	for i := range cplus {
		cplus[i], cminus[i] = 1, 1
	}
	if n < 2 {
		return
	}
	rAll, rAllOK := p.JointRecall(group)
	qAll, qAllOK := p.JointFPR(group)
	rest := make([]triple.SourceID, 0, n-1)
	for i, s := range group {
		rest = rest[:0]
		for j, t := range group {
			if j != i {
				rest = append(rest, t)
			}
		}
		if rAllOK {
			if rRest, ok := p.JointRecall(rest); ok {
				den := p.Recall(s) * rRest
				if den > 0 && rAll > 0 {
					cplus[i] = rAll / den
				}
			}
		}
		if qAllOK {
			if qRest, ok := p.JointFPR(rest); ok {
				den := p.FPR(s) * qRest
				if den > 0 && qAll > 0 {
					cminus[i] = qAll / den
				}
			}
		}
	}
	return
}

// PairCounts reports the raw co-provision counts of two sources over the
// training data: how many true and false labeled triples each provides and
// both provide, plus the totals. The cluster package uses these to score the
// statistical significance of a pairwise correlation. It is one pass over
// the two provider bitsets, O(labeled/64) word operations, and allocates
// nothing: the per-source counts were taken once by NewEstimator.
func (e *Estimator) PairCounts(a, b triple.SourceID) (bothTrue, bothFalse, aTrue, aFalse, bTrue, bFalse, totTrue, totFalse int) {
	pa, pb := e.provLab[a], e.provLab[b]
	pb = pb[:len(pa)]
	labTrue := e.labTrue[:len(pa)]
	both := 0
	for w, x := range pa {
		x &= pb[w]
		if x == 0 {
			continue
		}
		both += onesCount64(x)
		bothTrue += onesCount64(x & labTrue[w])
	}
	bothFalse = both - bothTrue
	aTrue, aFalse = e.provTrue[a], e.provAll[a]-e.provTrue[a]
	bTrue, bFalse = e.provTrue[b], e.provAll[b]-e.provTrue[b]
	totTrue = len(e.trueIDs)
	totFalse = len(e.labelled) - totTrue
	return
}
