package corrfuse

import (
	"sync"
	"sync/atomic"

	"corrfuse/internal/index"
)

// frozen is a model's immutable score index: every provided triple's
// probability and acceptance decision, computed once by Freeze, plus the
// global ranking. After Freeze, the model's read surface
// (Probability, Score, Fuse) serves from these tables in O(1) per triple
// instead of re-running the fusion algorithm per call — the shape the
// serving layer's per-snapshot read index is built from.
//
// ready is only set after every table is fully written (inside the Once),
// so lock-free readers either see the complete index or take the compute
// path; both return identical values because the tables hold the
// algorithm's own outputs verbatim.
type frozen struct {
	once  sync.Once
	ready atomic.Bool

	// Dense by TripleID; provided marks the IDs the tables cover (triples
	// with at least one provider). Unprovided IDs keep the compute path:
	// their probabilities are rarely asked for and freezing them would
	// change no served value, only pre-pay cost.
	probs    []float64
	provided []bool
	accepted []bool

	// order is the ranking Fuse returns — the provided IDs by descending
	// probability, ascending ID within equal scores — and numAccepted how
	// many of them are accepted. They are built lazily by rankedResult on
	// the first Fuse call — the serving layer reads only the tables above,
	// so a model that is frozen but never fused pays no sort — and cost
	// 4 bytes per triple for the model's life; the ScoredTriple lists are
	// materialised per call and belong to the caller.
	rankOnce    sync.Once
	order       []int32
	numAccepted int
}

// rankedResult ranks the frozen tables once and returns a fresh Result cut
// from the ranking at its exact size: All in rank order, Accepted its
// accepted subsequence. Callers may reorder or filter both. d must be the
// dataset the tables are dense over.
func (fr *frozen) rankedResult(d *Dataset) *Result {
	fr.rankOnce.Do(func() {
		fr.order = index.Rank(fr.probs, fr.provided)
		for _, id := range fr.order {
			if fr.accepted[id] {
				fr.numAccepted++
			}
		}
	})
	all := make([]ScoredTriple, len(fr.order))
	acc := make([]ScoredTriple, 0, fr.numAccepted)
	for i, id := range fr.order {
		st := ScoredTriple{Triple: d.Triple(TripleID(id)), ID: TripleID(id), Probability: fr.probs[id]}
		all[i] = st
		if fr.accepted[id] {
			acc = append(acc, st)
		}
	}
	return &Result{All: all, Accepted: acc}
}

// lookup reads one ID from the frozen tables. ok is false while the tables
// are not ready or for IDs outside the provided set — callers then fall
// back to the compute path.
func (fr *frozen) lookup(id TripleID) (p float64, accepted, ok bool) {
	if !fr.ready.Load() || int(id) >= len(fr.provided) || !fr.provided[id] {
		return 0, false, false
	}
	return fr.probs[id], fr.accepted[id], true
}

// score answers a Score call from the frozen tables, falling back to
// slowPath for the (rare) IDs outside the provided set.
func (fr *frozen) score(ids []TripleID, slowPath func([]TripleID) []float64) []float64 {
	out := make([]float64, len(ids))
	var slowIdx []int
	var slow []TripleID
	for i, id := range ids {
		if p, _, ok := fr.lookup(id); ok {
			out[i] = p
			continue
		}
		slowIdx = append(slowIdx, i)
		slow = append(slow, id)
	}
	if len(slow) > 0 {
		for j, p := range slowPath(slow) {
			out[slowIdx[j]] = p
		}
	}
	return out
}

// Freeze scores every provided triple of the dataset once and caches the
// results, turning Probability, Score and Fuse into O(1) table reads. It is
// idempotent and safe for concurrent use; Fuse calls it implicitly, so a
// model that has fused once serves all subsequent reads from the index.
// Concurrent readers during the freeze take the compute path and observe
// the same values (the tables hold the algorithm's outputs verbatim).
func (f *Fuser) Freeze() {
	f.fr.once.Do(func() {
		n := f.d.NumTriples()
		var ids []TripleID
		for i := 0; i < n; i++ {
			if len(f.d.Providers(TripleID(i))) > 0 {
				ids = append(ids, TripleID(i))
			}
		}
		scores := f.scoreModel(ids)
		probs := make([]float64, n)
		provided := make([]bool, n)
		accepted := make([]bool, n)
		for i, id := range ids {
			p := scores[i]
			probs[id] = p
			provided[id] = true
			if f.decideScored(id, p) {
				accepted[id] = true
			}
		}
		f.fr.probs = probs
		f.fr.provided = provided
		f.fr.accepted = accepted
		f.fr.ready.Store(true)
	})
}

// FrozenScores freezes the model (if it is not already) and returns the
// dense score tables by TripleID: probability, whether the ID is in the
// fused result set, and the acceptance decision. The slices are the index
// itself, not copies — they are immutable and safe to share; callers must
// not mutate them. This is the zero-copy hand-off the serving layer builds
// its per-snapshot read index from.
func (f *Fuser) FrozenScores() (probs []float64, provided, accepted []bool) {
	f.Freeze()
	return f.fr.probs, f.fr.provided, f.fr.accepted
}

// Dataset returns the dataset the Fuser was trained on. The dataset must
// not be mutated while the Fuser is in use.
func (f *Fuser) Dataset() *Dataset { return f.d }

// Options returns the effective options the Fuser was built with (after
// defaulting).
func (f *Fuser) Options() Options { return f.opts }
