// Package corrfuse is a library for truth discovery over multi-source data
// with unknown correlations, reproducing "Fusing Data with Correlations"
// (Pochampally, Das Sarma, Dong, Meliou, Srivastava — SIGMOD 2014).
//
// Given a set of sources that each provide a set of knowledge triples, and a
// training subset with gold truth labels, corrfuse computes for every triple
// the probability that it is true. Source quality is modeled as precision
// and recall; correlation between sources — positive (copying, shared
// extraction patterns) or negative (complementary domains) — is modeled as
// joint precision and joint recall of source subsets and exploited through a
// Bayesian inclusion–exclusion analysis.
//
// Quick start:
//
//	d := corrfuse.NewDataset()
//	s1 := d.AddSource("extractor-1")
//	d.Observe(s1, corrfuse.Triple{Subject: "Obama", Predicate: "profession", Object: "president"})
//	// … more observations; label a training subset:
//	d.SetLabel(corrfuse.Triple{...}, corrfuse.True)
//
//	f, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorr})
//	res, err := f.Fuse()
//	for _, st := range res.Accepted { fmt.Println(st.Triple, st.Probability) }
package corrfuse

import (
	"fmt"

	"corrfuse/internal/triple"
)

// Triple is one unit of data: {subject, predicate, object}.
type Triple = triple.Triple

// Dataset holds sources, their output triples and gold labels.
type Dataset = triple.Dataset

// SourceID identifies a registered source.
type SourceID = triple.SourceID

// TripleID identifies a distinct triple within a dataset.
type TripleID = triple.TripleID

// Label is a gold truth label.
type Label = triple.Label

// Label values.
const (
	Unknown = triple.Unknown
	True    = triple.True
	False   = triple.False
)

// Scope controls which non-providing sources count as evidence against a
// triple; see ScopeGlobal and NewScopeSubject.
type Scope = triple.Scope

// ScopeGlobal holds every source accountable for every triple.
type ScopeGlobal = triple.ScopeGlobal

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return triple.NewDataset() }

// NewScopeSubject builds a scope under which a source is only accountable
// for triples whose subject it covers.
func NewScopeSubject(d *Dataset) Scope { return triple.NewScopeSubject(d) }

// Method selects the fusion algorithm.
type Method int

// Available methods. PrecRec and PrecRecCorr are the paper's contributions;
// the remaining methods are the baselines it compares against.
const (
	// PrecRec is the independent-source Bayesian model (Theorem 3.1).
	PrecRec Method = iota
	// PrecRecCorr is the exact correlation-aware model (Theorem 4.2).
	PrecRecCorr
	// PrecRecCorrAggressive is the linear-time approximation (Def. 4.5).
	PrecRecCorrAggressive
	// PrecRecCorrElastic is Algorithm 1 at Options.ElasticLevel.
	PrecRecCorrElastic
	// UnionK accepts triples provided by at least Options.UnionK percent
	// of the sources. K=50 is majority voting.
	UnionK
	// ThreeEstimates is the baseline of Galland et al. (WSDM'10).
	ThreeEstimates
	// LTM is the Latent Truth Model of Zhao et al. (PVLDB'12).
	LTM
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case PrecRec:
		return "PrecRec"
	case PrecRecCorr:
		return "PrecRecCorr"
	case PrecRecCorrAggressive:
		return "PrecRecCorr-Aggressive"
	case PrecRecCorrElastic:
		return "PrecRecCorr-Elastic"
	case UnionK:
		return "Union-K"
	case ThreeEstimates:
		return "3-Estimates"
	case LTM:
		return "LTM"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod maps a -method flag value (precrec, corr, aggressive, elastic,
// union, 3est, ltm) to its Method.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "precrec":
		return PrecRec, nil
	case "corr":
		return PrecRecCorr, nil
	case "aggressive":
		return PrecRecCorrAggressive, nil
	case "elastic":
		return PrecRecCorrElastic, nil
	case "union":
		return UnionK, nil
	case "3est":
		return ThreeEstimates, nil
	case "ltm":
		return LTM, nil
	}
	return 0, fmt.Errorf("unknown method %q", name)
}

// DeriveAlpha returns the a-priori truth probability a gold-label count
// (Dataset.CountLabels) implies: the true share of the labeled triples, kept
// within [0.05, 0.95] so a lopsided training set cannot pin the prior.
// Without labels it returns 0, the Options.Alpha value that selects the
// default.
func DeriveAlpha(numTrue, numFalse int) float64 {
	if numTrue+numFalse == 0 {
		return 0
	}
	return min(max(float64(numTrue)/float64(numTrue+numFalse), 0.05), 0.95)
}

// Options configures a Fuser.
type Options struct {
	// Method selects the algorithm. Default PrecRecCorr.
	Method Method

	// Alpha is the a-priori probability that a triple is true.
	// Default 0.5 (the paper's setting).
	Alpha float64

	// Train restricts quality estimation to these labeled triples.
	// Nil means every labeled triple in the dataset. Ignored by UnionK,
	// ThreeEstimates and LTM, which are unsupervised.
	Train []TripleID

	// Scope defaults to ScopeGlobal.
	Scope Scope

	// Smoothing is an add-k smoothing constant for the quality counts;
	// useful for small training sets. Default 0.
	Smoothing float64

	// ElasticLevel is the adjustment level λ for PrecRecCorrElastic.
	// Default 3 (the paper's recommended level).
	ElasticLevel int

	// UnionK is the acceptance percentage for the UnionK method.
	// Default 50 (majority voting).
	UnionK int

	// Clustering controls whether sources are partitioned into
	// correlation clusters before running a correlation-aware method.
	// ClusterAuto (default) clusters when the dataset is too wide for
	// the exact computation to run from one dense joint table (more than
	// 20 sources); ClusterAlways and ClusterNever force it. Under
	// ClusterNever New fails when the single cluster is wider than the
	// method accepts: 30 sources for PrecRecCorr, 64 for the elastic
	// approximation (PrecRec and the aggressive approximation take any
	// width).
	Clustering ClusterMode
	// ClusterThreshold is the minimum significance (z-score of the
	// observed co-provision count against its independence expectation)
	// for a pair to be considered correlated (default 3).
	ClusterThreshold float64
	// MaxClusterSize caps correlation clusters. Default 20, the widest
	// cluster that gets a dense joint table; the exact method accepts up
	// to 30 on explicit request, at 2ⁿ map lookups per pattern, and the
	// elastic approximation up to 64. New fails when clustering produces
	// a cluster over the method's limit.
	MaxClusterSize int

	// Seed drives the stochastic methods (LTM). Default 1.
	Seed int64
	// LTMIterations and LTMBurnIn control the Gibbs sampler
	// (defaults 10 and 5).
	LTMIterations, LTMBurnIn int
	// Iterations controls the 3-Estimates fixed point (default 20).
	Iterations int

	// Parallelism is the one worker bound of a model: the goroutines Score
	// and Freeze (and so Fuse) score triples on. Training is serial. 0
	// means GOMAXPROCS; 1 forces serial work.
	Parallelism int

	// Shards is accepted and ignored: a model is one quality estimator, one
	// clustering and one table set over the whole dataset, as the paper
	// fits them, whatever Shards says (NewSharded and NewModel are New). It
	// remains because the benchmark harness sets it.
	Shards int
}

// ClusterMode controls source clustering for correlation-aware methods.
type ClusterMode int

// Clustering modes.
const (
	// ClusterAuto clusters only when the source set is too wide for the
	// exact inclusion–exclusion computation over a dense joint table.
	ClusterAuto ClusterMode = iota
	// ClusterAlways always partitions sources by pairwise correlation.
	ClusterAlways
	// ClusterNever treats all sources as one cluster; construction fails
	// if that is infeasible for the chosen method.
	ClusterNever
)

// ScoredTriple pairs a triple with its computed correctness probability.
type ScoredTriple struct {
	Triple      Triple
	ID          TripleID
	Probability float64
}

// Result is the outcome of Fuse: the accepted (probability > 0.5) triples
// and the full scored list, both in descending probability order.
type Result struct {
	// Accepted holds the triples classified as true.
	Accepted []ScoredTriple
	// All holds every provided triple with its probability.
	All []ScoredTriple
}
