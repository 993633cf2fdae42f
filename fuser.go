package corrfuse

import (
	"fmt"
	"slices"

	"corrfuse/internal/baseline"
	"corrfuse/internal/cluster"
	"corrfuse/internal/core"
	"corrfuse/internal/quality"
	"corrfuse/internal/triple"
)

// Fuser scores triples with correctness probabilities using the configured
// method. Build one with New; it is immutable and safe for concurrent use
// after construction. Freeze (called implicitly by Fuse) computes every
// probability once and turns the whole read surface into O(1) index reads.
//
// Fuser is the one fusion engine: the library, fuse and the fused service
// all train it, and Rebuild retrains it over a newer capture of the data.
type Fuser struct {
	d    *Dataset
	opts Options
	alg  core.Algorithm

	clusters [][]SourceID
	est      *quality.Estimator

	// fr is the frozen score index; see Freeze in snapshot.go.
	fr frozen
}

// New builds a Fuser over d. Supervised methods (PrecRec and the PrecRecCorr
// family) require gold labels on a training subset of d (Options.Train, or
// all labeled triples); unsupervised baselines do not.
func New(d *Dataset, opts Options) (*Fuser, error) {
	if d == nil {
		return nil, fmt.Errorf("corrfuse: nil dataset")
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.5
	}
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		return nil, fmt.Errorf("corrfuse: Alpha %v outside (0,1)", opts.Alpha)
	}
	if opts.Scope == nil {
		opts.Scope = ScopeGlobal{}
	}
	if opts.ElasticLevel == 0 {
		opts.ElasticLevel = 3
	}
	if opts.UnionK == 0 {
		opts.UnionK = 50
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	f := &Fuser{d: d, opts: opts}
	switch opts.Method {
	case UnionK:
		alg, err := baseline.NewUnionKScoped(d, opts.UnionK, opts.Scope)
		if err != nil {
			return nil, err
		}
		f.alg = alg
	case ThreeEstimates:
		f.alg = baseline.NewThreeEstimates(d, baseline.ThreeEstimatesOptions{
			Iterations: opts.Iterations,
			Scope:      opts.Scope,
		})
	case LTM:
		f.alg = baseline.NewLTM(d, baseline.LTMOptions{
			Iterations: opts.LTMIterations,
			BurnIn:     opts.LTMBurnIn,
			Seed:       opts.Seed,
			Scope:      opts.Scope,
		})
	case PrecRec, PrecRecCorr, PrecRecCorrAggressive, PrecRecCorrElastic:
		est, err := quality.NewEstimator(d, quality.Options{
			Alpha:     opts.Alpha,
			Scope:     opts.Scope,
			Smoothing: opts.Smoothing,
			Train:     opts.Train,
		})
		if err != nil {
			return nil, err
		}
		f.est = est
		cfg := core.Config{Dataset: d, Params: est, Scope: opts.Scope}
		if opts.Method != PrecRec {
			clusters, err := f.resolveClusters(est)
			if err != nil {
				return nil, err
			}
			f.clusters = clusters
			cfg.Clusters = clusters
		}
		var alg core.Algorithm
		switch opts.Method {
		case PrecRec:
			alg, err = core.NewPrecRec(cfg)
		case PrecRecCorr:
			alg, err = core.NewExact(cfg)
		case PrecRecCorrAggressive:
			alg, err = core.NewAggressive(cfg)
		case PrecRecCorrElastic:
			alg, err = core.NewElastic(cfg, opts.ElasticLevel)
		}
		if err != nil {
			return nil, err
		}
		f.alg = alg
	default:
		return nil, fmt.Errorf("corrfuse: unknown method %v", opts.Method)
	}
	return f, nil
}

// resolveClusters applies the clustering policy.
func (f *Fuser) resolveClusters(est *quality.Estimator) ([][]SourceID, error) {
	n := f.d.NumSources()
	copts := cluster.Options{
		Threshold:      f.opts.ClusterThreshold,
		MaxClusterSize: f.opts.MaxClusterSize,
	}
	switch f.opts.Clustering {
	case ClusterNever:
		// A single cluster (core's default); core refuses one too wide
		// for the method.
		return nil, nil
	case ClusterAlways:
		return cluster.Cluster(est, copts), nil
	default: // ClusterAuto
		// No default reaches the kernel's sparse 2ⁿ path: exact runs
		// unclustered only while one dense table holds every subset, and
		// the default cluster cap is that same width.
		if n <= quality.MaxTableWidth && f.opts.Method == PrecRecCorr {
			return nil, nil
		}
		if n <= 16 {
			// Small enough for any method without clustering.
			return nil, nil
		}
		return cluster.Cluster(est, copts), nil
	}
}

// OnlineScorer is the surface of the online scorer the serving layer drives
// (and its tests fake); Online returns one. Implementations are NOT
// internally synchronized; callers serialize access (internal/serve guards
// its scorer with the live lock).
type OnlineScorer interface {
	// Observe records that source s provides t and returns t's probability.
	Observe(s SourceID, t Triple) (float64, error)
	// Probability returns t's probability; ok is false for a triple never
	// observed.
	Probability(t Triple) (p float64, ok bool)
	// Providers returns how many sources provide t, 0 for a triple never
	// observed.
	Providers(t Triple) int
	// Len returns the number of triples observed.
	Len() int
}

// patternScorer is the supervised kernels' entry point: the probability of
// one observation pattern (see core's PatternProbability).
type patternScorer interface {
	PatternProbability(providers []SourceID, inScope func(SourceID) bool) float64
}

// Online returns a scorer that answers claims with this Fuser's trained
// model. A triple's first claim starts it from its providers in the Fuser's
// dataset, every claim adds its source, and the triple's probability is the
// model's for the resulting provider pattern. So under global scope, where
// an unlabelled claim from a known source moves no parameter, the answer is
// the one a Rebuild over the same claims gives. Under a subject scope
// (NewScopeSubject) the sources in scope for t are those covering t's subject
// in the Fuser's dataset, plus t's providers; other custom scopes are
// refused, and so are the unsupervised methods, which have no trained model.
// penalizeSilence is ignored: the scope the model was trained under decides.
func (f *Fuser) Online(penalizeSilence bool) (OnlineScorer, error) {
	model, ok := f.alg.(patternScorer)
	if !ok {
		return nil, fmt.Errorf("corrfuse: method %s has no trained quality model; use PrecRec or a PrecRecCorr variant", f.MethodName())
	}
	o := &online{d: f.d, model: model, triples: make(map[Triple]liveTriple)}
	switch sc := f.opts.Scope.(type) {
	case ScopeGlobal:
	case *triple.ScopeSubject:
		o.subjects = sc
	default:
		return nil, fmt.Errorf("corrfuse: online scoring needs ScopeGlobal or NewScopeSubject, not scope %T", sc)
	}
	return o, nil
}

// online is the scorer Online returns. triples holds every triple observed:
// its providers, ascending, and the model's probability for them.
type online struct {
	d        *Dataset
	model    patternScorer
	subjects *triple.ScopeSubject // nil under ScopeGlobal
	triples  map[Triple]liveTriple
}

type liveTriple struct {
	providers []SourceID
	p         float64
}

func (o *online) Observe(s SourceID, t Triple) (float64, error) {
	if int(s) < 0 || int(s) >= o.d.NumSources() {
		return 0, fmt.Errorf("corrfuse: source %d out of range", s)
	}
	lt, seen := o.triples[t]
	if !seen {
		if id, ok := o.d.TripleID(t); ok {
			// Clipped, so the insert below copies before it writes.
			lt.providers = slices.Clip(o.d.Providers(id))
		}
	}
	i, present := slices.BinarySearch(lt.providers, s)
	if seen && present {
		return lt.p, nil
	}
	if !present {
		lt.providers = slices.Insert(lt.providers, i, s)
	}
	var inScope func(SourceID) bool
	if o.subjects != nil {
		inScope = func(s SourceID) bool { return o.subjects.Covers(o.d, s, t.Subject) }
	}
	lt.p = o.model.PatternProbability(lt.providers, inScope)
	o.triples[t] = lt
	return lt.p, nil
}

func (o *online) Probability(t Triple) (float64, bool) {
	lt, ok := o.triples[t]
	return lt.p, ok
}

func (o *online) Providers(t Triple) int { return len(o.triples[t].providers) }

func (o *online) Len() int { return len(o.triples) }

// Rebuild trains a new Fuser over d with this Fuser's options. A Fuser is
// immutable once built; rebuilding is the path by which a long-running
// system folds newly accumulated observations into a fresh model and
// atomically swaps it in (see internal/serve).
//
// Two options are re-derived rather than copied verbatim:
//
//   - Train is cleared: it holds TripleIDs of the original dataset, which
//     are meaningless in d, so the new model trains on every labeled triple
//     of d.
//   - A subject scope (NewScopeSubject) is re-indexed for d; its per-source
//     subject coverage is dataset-specific. ScopeGlobal and custom
//     dataset-agnostic scopes are kept as-is.
func (f *Fuser) Rebuild(d *Dataset) (*Fuser, error) {
	opts := f.opts
	opts.Train = nil
	if _, ok := opts.Scope.(*triple.ScopeSubject); ok && d != nil {
		opts.Scope = NewScopeSubject(d)
	}
	return New(d, opts)
}

// MethodName returns the descriptive name of the configured algorithm.
func (f *Fuser) MethodName() string { return f.alg.Name() }

// Clusters returns the correlation clusters in effect (nil when the method
// runs over a single cluster).
func (f *Fuser) Clusters() [][]SourceID { return f.clusters }

// Probability returns Pr(t true | observations) for a triple already present
// in the dataset. ok is false when the triple is unknown. After Freeze the
// value is an O(1) read from the frozen score index.
func (f *Fuser) Probability(t Triple) (p float64, ok bool) {
	id, ok := f.d.TripleID(t)
	if !ok {
		return 0, false
	}
	return f.ProbabilityByID(id), true
}

// ProbabilityByID returns Pr(t true | observations) for a triple ID. After
// Freeze the value is an O(1) read from the frozen score index.
func (f *Fuser) ProbabilityByID(id TripleID) float64 {
	if p, _, ok := f.fr.lookup(id); ok {
		return p
	}
	return f.alg.Probability(id)
}

// Score computes probabilities for the given triple IDs. After Freeze every
// provided ID is an O(1) index read; before, the core algorithms score with
// Options.Parallelism workers.
func (f *Fuser) Score(ids []TripleID) []float64 {
	if f.fr.ready.Load() {
		return f.fr.score(ids, f.scoreModel)
	}
	return f.scoreModel(ids)
}

// scoreModel runs the fusion algorithm over the IDs (the pre-freeze path).
func (f *Fuser) scoreModel(ids []TripleID) []float64 {
	if f.opts.Parallelism != 1 {
		return core.ParallelScore(f.alg, ids, f.opts.Parallelism)
	}
	return f.alg.Score(ids)
}

// Decide reports whether the triple is accepted as true (probability > 0.5;
// for UnionK, the K% provider rule).
func (f *Fuser) Decide(t Triple) (accepted, known bool) {
	id, ok := f.d.TripleID(t)
	if !ok {
		return false, false
	}
	return f.decideID(id), true
}

func (f *Fuser) decideID(id TripleID) bool {
	if _, accepted, ok := f.fr.lookup(id); ok {
		return accepted
	}
	if u, ok := f.alg.(*baseline.UnionK); ok {
		return u.Decide(id)
	}
	return f.alg.Probability(id) > 0.5
}

// decideScored is decideID for a triple whose probability is already
// computed, sparing the probability lookup for the threshold methods.
func (f *Fuser) decideScored(id TripleID, p float64) bool {
	if u, ok := f.alg.(*baseline.UnionK); ok {
		return u.Decide(id)
	}
	return p > 0.5
}

// Fuse scores every provided triple and returns the accepted set R — the
// paper's high-quality output {t : t ∈ O ∧ t is true} — together with the
// full ranking. The first call freezes the score index (see Freeze) and
// ranks it; every subsequent call returns copies of the frozen ranking
// without rescoring or re-sorting.
func (f *Fuser) Fuse() (*Result, error) {
	f.Freeze()
	return f.fr.rankedResult(f.d), nil
}
