package corrfuse

import (
	"fmt"

	"corrfuse/internal/baseline"
	"corrfuse/internal/cluster"
	"corrfuse/internal/core"
	"corrfuse/internal/quality"
)

// Fuser scores triples with correctness probabilities using the configured
// method. Build one with New; it is immutable and safe for concurrent use
// after construction. Freeze (called implicitly by Fuse) computes every
// probability once and turns the whole read surface into O(1) index reads.
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
			Fallback:  opts.qualityFallback,
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

// Incremental maintains PrecRec probabilities under a stream of
// observations with O(1) updates; see Fuser.Incremental.
type Incremental = core.Incremental

// Incremental derives an online fuser from this Fuser's trained quality
// model. Only the supervised methods carry a quality model; penalizeSilence
// selects global-scope semantics (every silent source counts against a
// triple). The returned Incremental is independent of the Fuser's dataset:
// feed it any observation stream.
func (f *Fuser) Incremental(penalizeSilence bool) (*Incremental, error) {
	if f.est == nil {
		return nil, fmt.Errorf("corrfuse: method %s has no trained quality model; use PrecRec or a PrecRecCorr variant", f.MethodName())
	}
	return core.NewIncremental(f.est, f.d.NumSources(), penalizeSilence)
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
