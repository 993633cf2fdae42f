// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the Figure 1 analysis of the running example, the
// Figure 4 comparisons on the three (simulated) real-world datasets, the
// Figure 5 elastic-approximation and runtime studies, and the Figure 6/7
// synthetic sweeps. Each experiment has a Run function returning structured
// results and a Print function emitting the paper-style table.
package experiments

import (
	"fmt"
	"time"

	"corrfuse/internal/baseline"
	"corrfuse/internal/cluster"
	"corrfuse/internal/core"
	"corrfuse/internal/dataset"
	"corrfuse/internal/eval"
	"corrfuse/internal/quality"
	"corrfuse/internal/triple"
)

// Options configures an evaluation run.
type Options struct {
	// Alpha is the a-priori truth probability. When 0 it is derived from
	// the gold standard as the fraction of true triples (§3.1: "the
	// a-priori probability α can be derived from a training set"), which
	// keeps the Theorem 3.5 FPR derivation consistent with the data: with
	// a fixed α = 0.5, every source whose precision is below 0.5 would be
	// treated as anti-indicative (Theorem 3.5's p > α condition).
	Alpha float64
	// Seed drives LTM's Gibbs sampler (default 1).
	Seed int64
	// LTMIterations (default 10, matching "LTM (10 iter)").
	LTMIterations int
	// ExactCorrelation selects the exact inclusion–exclusion for
	// PrecRecCorr; when false, the elastic approximation at ElasticLevel
	// is used instead (needed for BOOK-scale data; the paper reports
	// level 3 is nearly identical to exact).
	ExactCorrelation bool
	// ElasticLevel for the approximate PrecRecCorr (default 3).
	ElasticLevel int
	// ClusterSources partitions sources by pairwise correlation before
	// the correlation-aware methods run (the paper's device for BOOK).
	ClusterSources bool
	// MaxClusterSize caps correlation clusters (0 = cluster.Options'
	// default).
	MaxClusterSize int
	// SkipLTM and SkipThreeEstimates drop the slow baselines (useful in
	// benchmarks that only target the paper's methods).
	SkipLTM, SkipThreeEstimates bool
	// SubjectScope holds sources accountable only for triples whose
	// subject they cover (the natural semantics for many narrow sources,
	// e.g. booksellers). When false, every source is in scope for every
	// triple.
	SubjectScope bool
	// Smoothing is the add-k constant for the quality counts (useful for
	// datasets with very sparse sources; 0 = raw counts).
	Smoothing float64
	// MinJointSupport regularizes joint statistics: source combinations
	// with fewer backing training triples are treated as independent.
	MinJointSupport int
}

func (o *Options) normalize() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LTMIterations == 0 {
		o.LTMIterations = 10
	}
	if o.ElasticLevel == 0 {
		o.ElasticLevel = 3
	}
}

// MethodEval is the evaluation of one method on one dataset: the binary
// metrics of Figure 4's bar charts, the curve areas, and the wall-clock time
// of Figure 5b.
type MethodEval struct {
	Method  string
	Metrics eval.BinaryMetrics
	AUCPR   float64
	AUCROC  float64
	Elapsed time.Duration
	// Scores and Labels allow callers to re-plot the PR/ROC curves.
	Scores []float64
	Labels []bool
}

// EvaluateAll runs the Section 5 method suite — Union-25/50/75, 3-Estimates,
// LTM, PrecRec, PrecRecCorr — on the gold-labeled triples of d that at least
// one source provides, and returns one MethodEval per method in the paper's
// ordering.
func EvaluateAll(d *triple.Dataset, opts Options) ([]MethodEval, error) {
	opts.normalize()
	ids := dataset.ProvidedLabeled(d)
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: dataset has no provided labeled triples")
	}
	labels := dataset.GoldLabels(d, ids)
	if opts.Alpha == 0 {
		opts.Alpha = DeriveAlpha(d)
	}
	var scope triple.Scope = triple.ScopeGlobal{}
	if opts.SubjectScope {
		scope = triple.NewScopeSubject(d)
	}

	var out []MethodEval

	for _, k := range []int{25, 50, 75} {
		start := time.Now()
		u, err := baseline.NewUnionKScoped(d, k, scope)
		if err != nil {
			return nil, err
		}
		scores := u.Score(ids)
		decisions := u.Decisions(ids)
		out = append(out, evalRun(u.Name(), scores, decisions, labels, time.Since(start)))
	}

	if !opts.SkipThreeEstimates {
		start := time.Now()
		te := baseline.NewThreeEstimates(d, baseline.ThreeEstimatesOptions{Scope: scope})
		scores := te.Score(ids)
		out = append(out, evalRun(te.Name(), scores, threshold(scores, 0.5), labels, time.Since(start)))
	}

	if !opts.SkipLTM {
		start := time.Now()
		ltm := baseline.NewLTM(d, baseline.LTMOptions{Iterations: opts.LTMIterations, Seed: opts.Seed, Scope: scope})
		scores := ltm.Score(ids)
		out = append(out, evalRun(ltm.Name(), scores, threshold(scores, 0.5), labels, time.Since(start)))
	}

	// Supervised methods share one estimator (quality from gold standard,
	// as in §5 "PRECREC … computed source precision and recall according
	// to the gold standard").
	est, err := quality.NewEstimator(d, quality.Options{Alpha: opts.Alpha, Scope: scope,
		Smoothing: opts.Smoothing, MinJointSupport: opts.MinJointSupport})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	pr, err := core.NewPrecRec(core.Config{Dataset: d, Params: est, Scope: scope})
	if err != nil {
		return nil, err
	}
	scores := pr.Score(ids)
	out = append(out, evalRun(pr.Name(), scores, threshold(scores, 0.5), labels, time.Since(start)))

	start = time.Now()
	corr, err := buildCorr(d, est, scope, opts)
	if err != nil {
		return nil, err
	}
	scores = corr.Score(ids)
	ev := evalRun("PrecRecCorr", scores, threshold(scores, 0.5), labels, time.Since(start))
	out = append(out, ev)

	return out, nil
}

// buildCorr constructs the correlation-aware scorer per the options.
func buildCorr(d *triple.Dataset, est *quality.Estimator, scope triple.Scope, opts Options) (core.Algorithm, error) {
	cfg := core.Config{Dataset: d, Params: est, Scope: scope}
	if opts.ClusterSources {
		cfg.Clusters = cluster.Cluster(est, cluster.Options{MaxClusterSize: opts.MaxClusterSize})
	}
	if opts.ExactCorrelation {
		return core.NewExact(cfg)
	}
	return core.NewElastic(cfg, opts.ElasticLevel)
}

// evalRun assembles a MethodEval from scores and binary decisions.
func evalRun(name string, scores []float64, decisions []bool, labels []bool, elapsed time.Duration) MethodEval {
	var m eval.BinaryMetrics
	for i, dec := range decisions {
		switch {
		case dec && labels[i]:
			m.TP++
		case dec && !labels[i]:
			m.FP++
		case !dec && labels[i]:
			m.FN++
		default:
			m.TN++
		}
	}
	return MethodEval{
		Method:  name,
		Metrics: m,
		AUCPR:   eval.AUCPR(scores, labels),
		AUCROC:  eval.AUCROC(scores, labels),
		Elapsed: elapsed,
		Scores:  scores,
		Labels:  labels,
	}
}

// DeriveAlpha estimates the a-priori truth probability from the gold
// standard: the fraction of labeled triples that are true, clamped away from
// the extremes.
func DeriveAlpha(d *triple.Dataset) float64 {
	nt, nf := d.CountLabels()
	if nt+nf == 0 {
		return 0.5
	}
	a := float64(nt) / float64(nt+nf)
	if a < 0.05 {
		a = 0.05
	}
	if a > 0.95 {
		a = 0.95
	}
	return a
}

// threshold converts scores into accept decisions (score > th).
func threshold(scores []float64, th float64) []bool {
	out := make([]bool, len(scores))
	for i, s := range scores {
		out[i] = s > th
	}
	return out
}
