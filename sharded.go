package corrfuse

import (
	"fmt"
	"slices"
	"time"

	"corrfuse/internal/quality"
	"corrfuse/internal/shard"
	"corrfuse/internal/triple"
)

// Model is the read surface of ShardedFuser as an interface. The serving
// layer holds the concrete *ShardedFuser; Model and NewModel remain only
// because the frozen bench/ package compiles against them.
type Model interface {
	MethodName() string
	Probability(t Triple) (p float64, ok bool)
	ProbabilityByID(id TripleID) float64
	Score(ids []TripleID) []float64
	Decide(t Triple) (accepted, known bool)
	Fuse() (*Result, error)
	// FrozenScores freezes the model on first call and returns the dense
	// per-TripleID score tables, shared (not copied) with the model's
	// immutable index; callers must not mutate them.
	FrozenScores() (probs []float64, provided, accepted []bool)
	Dataset() *Dataset
	Options() Options
	// Online derives an incremental scorer from the trained quality
	// model; it fails for methods without one (the unsupervised
	// baselines).
	Online(penalizeSilence bool) (OnlineScorer, error)
}

// OnlineScorer is the surface of the O(1)-update online scorer the serving
// layer drives (and its tests fake): the subject-hash-routed
// ShardedIncremental. Implementations are NOT internally synchronized;
// callers serialize access (internal/serve guards its scorer with the live
// lock).
type OnlineScorer interface {
	Observe(s SourceID, t Triple) (float64, error)
	Probability(t Triple) (p float64, ok bool)
	Providers(t Triple) int
	Len() int
}

// NewModel is NewSharded behind the Model interface.
func NewModel(d *Dataset, opts Options) (Model, error) {
	sf, err := NewSharded(d, opts)
	if err != nil {
		return nil, err
	}
	return sf, nil
}

// ShardStat reports one shard's size and build cost.
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Triples is the number of distinct triples routed to the shard.
	Triples int
	// Labeled is the number of labeled triples in the shard's training
	// slice.
	Labeled int
	// Build is the wall time of the shard's model build. For a shard
	// adopted by RebuildPartial it is the build time of the adopted model,
	// not of the adoption (which is near-free).
	Build time.Duration
	// Reused reports that RebuildPartial adopted the previous model's
	// Fuser for this shard instead of retraining it.
	Reused bool
}

// ShardedFuser is the subject-hash-sharded fusion engine: the dataset is
// partitioned into Options.Shards shards (every triple about one subject
// lands in the same shard), an independent Fuser is trained per shard
// concurrently, and queries are routed by subject hash. It implements the
// same Probability/Score/Fuse surface as Fuser over the global dataset's
// TripleIDs, with Fuse merging the shard results into one globally ranked
// Result.
//
// One shard is the unpartitioned model. The paper's PrecRecCorr terms are
// independent per provider pattern, so an N = 1 partition changes nothing:
// the shard is the dataset itself (no copy), no global fallback estimator is
// built, and the shard's Fuser keeps Options.Parallelism for scoring — the
// engine then equals New(d, opts) bit for bit at the same cost (see
// TestOneShardEngineEqualsFuser).
//
// Consistency contract. Each shard trains its quality estimator and
// correlation clusters on its own label slice, so a model of several shards
// equals the unpartitioned one exactly when quality evidence and correlation
// are subject-scoped and no source's data crosses shards — with
// Options.Scope = NewScopeSubject and sources whose subjects all hash to
// one shard, probabilities agree to floating-point roundoff (see
// shard_differential_test.go). When a source's labels or a correlated
// group's co-provisions spread over several shards, each shard estimates
// from its slice: expectations are unchanged but estimator variance grows
// roughly with the shard count, and cross-shard joint statistics lose
// support (falling back to independence). Sources absent from a shard's
// label slice inherit their globally estimated quality rather than
// degenerate zero-precision estimates.
type ShardedFuser struct {
	d      *Dataset
	opts   Options
	part   *shard.Partition
	fusers []*Fuser
	stats  []ShardStat

	// fallback is the globally trained quality estimator handed to the
	// per-shard builds (nil when no shard needed it). A rebuild that adopts
	// shards reuses it verbatim when no rebuilt shard's labeled slice
	// changed.
	fallback quality.Params

	// fr is the frozen score index in global TripleID space; see Freeze.
	fr frozen
}

// NewSharded builds a fusion engine over d with opts.Shards subject-hash
// shards (0 or 1: one shard, the unpartitioned model), training the shard
// models concurrently on Options.Parallelism goroutines (0 = GOMAXPROCS).
func NewSharded(d *Dataset, opts Options) (*ShardedFuser, error) {
	return buildSharded(d, opts, nil, nil)
}

// buildSharded is the one construction path of the engine. prev and keep are
// optional. A non-nil prev makes the build a rebuild of prev (opts are its
// options, re-derived for d as Rebuild documents), and every shard si with
// keep[si] true whose slice of d is verifiably identical to prev's adopts
// prev's immutable Fuser and stats instead of retraining (see RebuildPartial
// for the contract); every other shard trains from scratch.
func buildSharded(d *Dataset, opts Options, prev *ShardedFuser, keep []bool) (*ShardedFuser, error) {
	if d == nil {
		return nil, fmt.Errorf("corrfuse: nil dataset")
	}
	if opts.Scope == nil {
		opts.Scope = ScopeGlobal{}
	}
	n := max(opts.Shards, 1)
	var prevPart *shard.Partition
	if prev != nil {
		prevPart = prev.part
		opts.Train = nil
		if _, ok := opts.Scope.(*triple.ScopeSubject); ok {
			opts.Scope = NewScopeSubject(d)
		}
	}
	part, reused := shard.RebuildPartial(d, n, prevPart, keep, opts.Parallelism)
	sf := &ShardedFuser{
		d:      d,
		opts:   opts,
		part:   part,
		fusers: make([]*Fuser, n),
		stats:  make([]ShardStat, n),
	}
	var toBuild []int
	for si := 0; si < n; si++ {
		if reused[si] {
			sf.fusers[si] = prev.fusers[si]
			sf.stats[si] = prev.stats[si]
			sf.stats[si].Reused = true
			continue
		}
		toBuild = append(toBuild, si)
	}

	// Shard options: a caller-supplied Train set holds global TripleIDs,
	// which are translated per shard through the partition so every shard
	// trains on exactly the slice of the restriction it owns (nil keeps
	// the default: all labeled triples). With several shards Parallelism
	// is forced serial inside a shard — the engine parallelizes across
	// shards and keeps one level of workers; a lone shard keeps it.
	sub := opts
	sub.Shards = 0
	sub.Train = nil
	if n > 1 {
		sub.Parallelism = 1
	}
	var trainPerShard [][]TripleID
	if opts.Train != nil {
		trainPerShard = make([][]TripleID, n)
		for _, id := range opts.Train {
			si, local := part.Locate(id)
			trainPerShard[si] = append(trainPerShard[si], local)
		}
	}

	// For supervised methods, a globally trained estimator serves as the
	// per-source quality fallback for sources a shard has no labeled
	// evidence about. It is only built when some shard actually needs it
	// (a cheap pre-pass over the label slices), keeping the serial
	// fraction of a sharded rebuild minimal when labels cover every
	// source everywhere. A globally label-less dataset always needs it,
	// so the build surfaces "no true labels" as one clear error. A lone
	// shard trains on the global evidence itself and takes none.
	//
	// The previous engine's estimator is reused only next to adopted
	// shards whose retrained neighbours kept their labeled slices: it is
	// then still exact. Nothing adopted (a from-scratch build, a full
	// rebuild, or a changed source table — the old estimator's tables are
	// indexed by the old table) re-derives it.
	if n > 1 && supervised(opts.Method) && anyShardNeedsFallback(part, trainPerShard) {
		if len(toBuild) < n && prev.fallback != nil && labeledSlicesUnchanged(prev.part, part, toBuild) {
			sf.fallback = prev.fallback
		} else {
			est, err := quality.NewEstimator(d, quality.Options{
				Alpha:     effectiveAlpha(opts.Alpha),
				Scope:     opts.Scope,
				Smoothing: opts.Smoothing,
				Train:     opts.Train,
			})
			if err != nil {
				return nil, err
			}
			sf.fallback = est
		}
		sub.qualityFallback = sf.fallback
	}
	if err := sf.buildShardFusers(toBuild, sub, trainPerShard); err != nil {
		return nil, err
	}
	return sf, nil
}

// buildShardFusers trains the shard models for the given shard indexes
// concurrently (Options.Parallelism goroutines), filling sf.fusers and
// sf.stats. trainPerShard, when non-nil, restricts each shard's training
// slice (shard-local IDs); nil keeps the default (all labeled triples).
func (sf *ShardedFuser) buildShardFusers(toBuild []int, sub Options, trainPerShard [][]TripleID) error {
	// A lone shard is the global dataset: the caller's scope already
	// indexes it.
	_, subjectScoped := sf.opts.Scope.(*triple.ScopeSubject)
	subjectScoped = subjectScoped && len(sf.fusers) > 1
	return shard.ForEach(len(toBuild), sf.opts.Parallelism, func(k int) error {
		i := toBuild[k]
		begin := time.Now()
		so := sub
		if trainPerShard != nil {
			// An empty (non-nil) slice keeps the restriction: a shard
			// owning no training triple must not widen to all labels.
			so.Train = trainPerShard[i]
			if so.Train == nil {
				so.Train = []TripleID{}
			}
		}
		if subjectScoped {
			// Re-index subject coverage for the shard's dataset. The
			// subject-hash partition keeps a subject's triples in one
			// shard, so the shard-local index equals the global one
			// restricted to the shard.
			so.Scope = NewScopeSubject(sf.part.Shard(i))
		}
		f, err := New(sf.part.Shard(i), so)
		if err != nil {
			return fmt.Errorf("corrfuse: shard %d: %w", i, err)
		}
		sf.fusers[i] = f
		numTrue, numFalse := sf.part.Shard(i).CountLabels()
		sf.stats[i] = ShardStat{
			Shard:   i,
			Triples: sf.part.Shard(i).NumTriples(),
			Labeled: numTrue + numFalse,
			Build:   time.Since(begin),
		}
		return nil
	})
}

// anyShardNeedsFallback reports whether any shard's training slice misses a
// source entirely (no labeled triple provided) or has no true labels — the
// two situations where per-shard estimation needs the global fallback.
// trainPerShard, when non-nil, restricts each shard's slice the way the
// shard estimators will be restricted (shard-local IDs); nil means all
// labeled triples.
func anyShardNeedsFallback(p *shard.Partition, trainPerShard [][]TripleID) bool {
	for i := 0; i < p.NumShards(); i++ {
		sd := p.Shard(i)
		slice := sd.Labeled()
		if trainPerShard != nil {
			slice = trainPerShard[i]
		}
		provided := make([]bool, sd.NumSources())
		hasTrue := false
		for _, id := range slice {
			if sd.Label(id) == Unknown {
				continue
			}
			if sd.Label(id) == True {
				hasTrue = true
			}
			for _, s := range sd.Providers(id) {
				provided[s] = true
			}
		}
		if !hasTrue {
			return true
		}
		for _, ok := range provided {
			if !ok {
				return true
			}
		}
	}
	return false
}

// supervised reports whether the method trains a quality estimator.
func supervised(m Method) bool {
	switch m {
	case PrecRec, PrecRecCorr, PrecRecCorrAggressive, PrecRecCorrElastic:
		return true
	}
	return false
}

// effectiveAlpha applies New's Alpha defaulting.
func effectiveAlpha(alpha float64) float64 {
	if alpha == 0 {
		return 0.5
	}
	return alpha
}

// NumShards returns the shard count.
func (sf *ShardedFuser) NumShards() int { return len(sf.fusers) }

// ShardStats returns per-shard sizes and build timings, in shard order.
func (sf *ShardedFuser) ShardStats() []ShardStat {
	out := make([]ShardStat, len(sf.stats))
	copy(out, sf.stats)
	return out
}

// PartitionTimings returns the stage costs of the partition build behind
// this engine (serial routing pass, concurrent shard dataset builds) — the
// partition share of a rebuild's wall time, surfaced by the service's
// corrfused_rebuild_stage_seconds metrics.
func (sf *ShardedFuser) PartitionTimings() shard.Timings { return sf.part.Timings() }

// MethodName returns the underlying method name tagged with the shard count.
func (sf *ShardedFuser) MethodName() string {
	return fmt.Sprintf("%s/%d-sharded", sf.fusers[0].MethodName(), len(sf.fusers))
}

// Dataset returns the global dataset the engine was built over.
func (sf *ShardedFuser) Dataset() *Dataset { return sf.d }

// Options returns the effective options the engine was built with.
func (sf *ShardedFuser) Options() Options { return sf.opts }

// shardFor routes a triple to its shard's Fuser by subject hash.
func (sf *ShardedFuser) shardFor(t Triple) *Fuser {
	return sf.fusers[shard.Of(t.Subject, len(sf.fusers))]
}

// Probability returns Pr(t true | observations) for a triple present in the
// dataset; ok is false when the triple is unknown.
func (sf *ShardedFuser) Probability(t Triple) (p float64, ok bool) {
	return sf.shardFor(t).Probability(t)
}

// ProbabilityByID returns Pr(t true | observations) for a global TripleID.
// After Freeze the value is an O(1) read from the frozen score index.
func (sf *ShardedFuser) ProbabilityByID(id TripleID) float64 {
	if p, _, ok := sf.fr.lookup(id); ok {
		return p
	}
	si, local := sf.part.Locate(id)
	return sf.fusers[si].ProbabilityByID(local)
}

// Decide reports whether the triple is accepted as true.
func (sf *ShardedFuser) Decide(t Triple) (accepted, known bool) {
	return sf.shardFor(t).Decide(t)
}

// Score computes probabilities for the given global TripleIDs. After Freeze
// every provided ID is an O(1) index read; before, the shards score
// concurrently with Options.Parallelism workers (0 = GOMAXPROCS,
// 1 = serial).
func (sf *ShardedFuser) Score(ids []TripleID) []float64 {
	if sf.fr.ready.Load() {
		return sf.fr.score(ids, sf.scoreModel)
	}
	return sf.scoreModel(ids)
}

// scoreModel routes the IDs to their shards and scores them there (the
// pre-freeze path).
func (sf *ShardedFuser) scoreModel(ids []TripleID) []float64 {
	n := len(sf.fusers)
	if n == 1 {
		// A lone shard's IDs are the global ones: nothing to route.
		return sf.fusers[0].Score(ids)
	}
	out := make([]float64, len(ids))
	perShard := make([][]TripleID, n)
	perIdx := make([][]int, n)
	for i, id := range ids {
		si, local := sf.part.Locate(id)
		perShard[si] = append(perShard[si], local)
		perIdx[si] = append(perIdx[si], i)
	}
	// Scoring cannot fail; ForEach's error path is unused here.
	shard.ForEach(n, sf.opts.Parallelism, func(si int) error {
		if len(perShard[si]) == 0 {
			return nil
		}
		for j, p := range sf.fusers[si].Score(perShard[si]) {
			out[perIdx[si][j]] = p
		}
		return nil
	})
	return out
}

// Freeze freezes every shard's score index concurrently (with
// Options.Parallelism workers) and assembles the merged, globally ranked
// tables in global TripleID space. It is idempotent and safe for concurrent
// use; Fuse calls it implicitly. A shard adopted by RebuildPartial keeps its
// frozen index (its dataset is verified identical), so a partial rebuild
// only rescores the retrained shards.
func (sf *ShardedFuser) Freeze() {
	sf.fr.once.Do(func() {
		n := len(sf.fusers)
		// Scoring cannot fail; ForEach's error path is unused here.
		shard.ForEach(n, sf.opts.Parallelism, func(si int) error {
			sf.fusers[si].Freeze()
			return nil
		})
		if n == 1 {
			// A lone shard's tables are already dense over the global
			// IDs: share them (they are immutable) instead of copying.
			f := sf.fusers[0]
			sf.fr.probs, sf.fr.provided, sf.fr.accepted = f.fr.probs, f.fr.provided, f.fr.accepted
			sf.fr.ready.Store(true)
			return
		}
		nt := sf.d.NumTriples()
		probs := make([]float64, nt)
		provided := make([]bool, nt)
		accepted := make([]bool, nt)
		for si, f := range sf.fusers {
			for lid, ok := range f.fr.provided {
				if !ok {
					continue
				}
				gid := sf.part.GlobalID(si, TripleID(lid))
				probs[gid] = f.fr.probs[lid]
				provided[gid] = true
				accepted[gid] = f.fr.accepted[lid]
			}
		}
		sf.fr.probs = probs
		sf.fr.provided = provided
		sf.fr.accepted = accepted
		sf.fr.ready.Store(true)
	})
}

// FrozenScores freezes the engine (if it is not already) and returns the
// dense score tables in global TripleID space; see Fuser.FrozenScores for
// the sharing contract.
func (sf *ShardedFuser) FrozenScores() (probs []float64, provided, accepted []bool) {
	sf.Freeze()
	return sf.fr.probs, sf.fr.provided, sf.fr.accepted
}

// Fuse scores every provided triple shard by shard and merges the shard
// results into one globally ranked Result keyed by global TripleIDs. Unlike
// chaining the per-shard Fuse results, the merge ranks once globally —
// per-shard orderings would be thrown away anyway. The first call freezes
// the score index (see Freeze) and ranks it; every subsequent call returns
// copies of the frozen ranking without rescoring or re-sorting.
func (sf *ShardedFuser) Fuse() (*Result, error) {
	sf.Freeze()
	return sf.fr.rankedResult(sf.d), nil
}

// Rebuild trains a new ShardedFuser over d with this engine's options,
// every shard from scratch. An engine is immutable once built; rebuilding is
// the path by which a long-running system folds newly accumulated
// observations into a fresh model and atomically swaps it in (see
// internal/serve).
//
// Two options are re-derived rather than copied verbatim:
//
//   - Train is cleared: it holds TripleIDs of the original dataset, which
//     are meaningless in d, so the new model trains on every labeled triple
//     of d.
//   - A subject scope (NewScopeSubject) is re-indexed for d; its per-source
//     subject coverage is dataset-specific. ScopeGlobal and custom
//     dataset-agnostic scopes are kept as-is.
func (sf *ShardedFuser) Rebuild(d *Dataset) (*ShardedFuser, error) {
	return buildSharded(d, sf.opts, sf, nil)
}

// RebuildPartial trains a new ShardedFuser over d retraining only the dirty
// shards; every other shard's immutable Fuser and stats are adopted from
// this engine verbatim. dirty holds the indexes of shards whose subjects may
// have changed since this engine's dataset was captured (e.g. from the
// store's per-shard version counters); out-of-range indexes are an error,
// duplicates are fine. Like Rebuild, Train is cleared and a subject scope is
// re-indexed for d. An engine that was itself built under a Train
// restriction delegates to Rebuild: its shard models bake that restriction
// in, so none of them may be adopted into the unrestricted result.
//
// Adoption is verified, not assumed: a shard is only reused when its slice
// of d is positionally identical to this engine's (same triples, labels and
// providers — see shard.RebuildPartial), so an understated dirty set
// degrades to retraining the changed shard, never to serving a stale model.
// A changed source table disables adoption entirely (every shard scores
// against the full source table).
//
// Exactness. A reused shard's Fuser was trained on a dataset identical to
// the one a full rebuild would train on, so RebuildPartial equals a full
// sharded rebuild exactly whenever the global quality fallback is unused or
// unchanged. The fallback (the globally trained estimator backing sources a
// shard has no labeled evidence about) is re-derived when a retrained
// shard's labeled slice changed — labels added, removed, flipped, or a
// labeled triple's provenance changed — or when nothing was adopted; reused
// shards then keep the quality they were built with until their shard next
// changes (or a full Rebuild). Under subject scope a new unlabeled triple
// can also shift the global estimator by widening a source's coverage; that
// drift is bounded by the same argument as cross-shard estimation (see the
// consistency contract above) and is the price of not retraining clean
// shards. A one-shard engine has no fallback and no neighbours: its partial
// rebuild either adopts the whole model (d unchanged) or is a full rebuild.
func (sf *ShardedFuser) RebuildPartial(d *Dataset, dirty []int) (*ShardedFuser, error) {
	if sf.opts.Train != nil {
		// This engine's shard models (and fallback estimator) were
		// trained under a Train restriction that any rebuild clears —
		// adopting them would mix restricted and unrestricted training
		// in one model. Fall back to the full rebuild the contract is
		// stated against.
		return sf.Rebuild(d)
	}
	n := len(sf.fusers)
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	for _, si := range dirty {
		if si < 0 || si >= n {
			return nil, fmt.Errorf("corrfuse: RebuildPartial: shard %d out of range [0,%d)", si, n)
		}
		keep[si] = false
	}
	return buildSharded(d, sf.opts, sf, keep)
}

// labeledSlicesUnchanged reports whether two captures of the given shards
// carry the same labeled slices: the same labeled triples with the same
// labels and the same providers. This is exactly the evidence the global
// quality fallback estimator is counted from, so an unchanged slice in every
// retrained shard means the previous fallback is still exact (clean shards
// are unchanged by definition).
func labeledSlicesUnchanged(prev, next *shard.Partition, shards []int) bool {
	for _, si := range shards {
		old, new := prev.Shard(si), next.Shard(si)
		ol, nl := old.Labeled(), new.Labeled()
		if len(ol) != len(nl) {
			return false
		}
		for _, id := range nl {
			oid, ok := old.TripleID(new.Triple(id))
			if !ok || old.Label(oid) != new.Label(id) || !slices.Equal(old.Providers(oid), new.Providers(id)) {
				return false
			}
		}
	}
	return true
}

// Online derives a subject-hash-routed online scorer: one Incremental per
// shard, each seeded with its shard's quality model, behind the routing
// function the batch engine uses (one shard: one Incremental, routing is the
// constant 0). It fails when the underlying method has no quality model.
func (sf *ShardedFuser) Online(penalizeSilence bool) (OnlineScorer, error) {
	incs := make([]*Incremental, len(sf.fusers))
	for i, f := range sf.fusers {
		inc, err := f.Incremental(penalizeSilence)
		if err != nil {
			return nil, fmt.Errorf("corrfuse: shard %d: %w", i, err)
		}
		incs[i] = inc
	}
	return &ShardedIncremental{incs: incs}, nil
}

// ShardedIncremental routes online claims to per-shard incremental scorers
// by subject hash, so live probabilities agree with the shard that will
// score the triple at the next batch rebuild. Like Incremental, it is not
// internally synchronized.
type ShardedIncremental struct {
	incs []*Incremental
}

func (si *ShardedIncremental) route(t Triple) *Incremental {
	return si.incs[shard.Of(t.Subject, len(si.incs))]
}

// Observe records that source s provides t, updating the owning shard's
// scorer in O(1). It returns the updated probability.
func (si *ShardedIncremental) Observe(s SourceID, t Triple) (float64, error) {
	return si.route(t).Observe(s, t)
}

// Probability returns the current probability of t; ok is false for triples
// never observed.
func (si *ShardedIncremental) Probability(t Triple) (p float64, ok bool) {
	return si.route(t).Probability(t)
}

// Providers returns how many sources currently provide t.
func (si *ShardedIncremental) Providers(t Triple) int {
	return si.route(t).Providers(t)
}

// Len returns the number of distinct triples observed across all shards.
func (si *ShardedIncremental) Len() int {
	n := 0
	for _, inc := range si.incs {
		n += inc.Len()
	}
	return n
}
