package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"corrfuse/internal/baseline"
	"corrfuse/internal/cluster"
	"corrfuse/internal/core"
	"corrfuse/internal/dataset"
	"corrfuse/internal/eval"
	"corrfuse/internal/quality"
	"corrfuse/internal/triple"
)

// DatasetBuilder names a dataset generator for the Figure 4/5 experiments.
type DatasetBuilder struct {
	Name  string
	Build func(seed int64) (*triple.Dataset, error)
	// Exact reports whether the exact correlation model is used for
	// PrecRecCorr; when false the elastic level-3 approximation runs
	// instead.
	Exact bool
	// Cluster partitions sources by pairwise correlation first, the
	// paper's device for the many-source BOOK dataset.
	Cluster bool
	// SubjectScope selects subject-level accountability (used for BOOK,
	// where a seller says nothing about books it does not list).
	SubjectScope bool
	// Smoothing is the add-k quality smoothing for sparse sources.
	Smoothing float64
	// MinJointSupport regularizes the joint statistics of rare source
	// combinations toward independence.
	MinJointSupport int
	// MaxClusterSize caps correlation clusters (0 = default). Narrow
	// clusters keep the within-cluster inclusion–exclusion estimates
	// well-supported on sparse many-source data.
	MaxClusterSize int
}

// Datasets returns the three simulated real-world datasets in the paper's
// order.
func Datasets() []DatasetBuilder {
	return []DatasetBuilder{
		{Name: "ReVerb", Build: dataset.SimulatedReVerb, Exact: true},
		{Name: "Restaurant", Build: func(seed int64) (*triple.Dataset, error) {
			return dataset.SimulatedRestaurant(seed, 1)
		}, Exact: true},
		{Name: "Book", Build: dataset.SimulatedBook, Exact: true, Cluster: true,
			SubjectScope: true, Smoothing: 0.5, MinJointSupport: 3, MaxClusterSize: 6},
	}
}

// DatasetByName resolves one of "reverb", "restaurant", "book".
func DatasetByName(name string) (DatasetBuilder, error) {
	for _, b := range Datasets() {
		if strings.EqualFold(b.Name, name) {
			return b, nil
		}
	}
	return DatasetBuilder{}, fmt.Errorf("experiments: unknown dataset %q", name)
}

// ---------------------------------------------------------------------------
// Figure 1b — source and joint quality of the running example.

// SourceQualityRow is one line of Figure 1b's left table.
type SourceQualityRow struct {
	Source            string
	Precision, Recall float64
}

// JointQualityRow is one line of Figure 1b's right table.
type JointQualityRow struct {
	Sources           []string
	Precision, Recall float64
}

// Fig1b recomputes Figure 1b from the reconstructed Obama dataset.
func Fig1b() ([]SourceQualityRow, []JointQualityRow, error) {
	d := dataset.Obama()
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		return nil, nil, err
	}
	var singles []SourceQualityRow
	for _, s := range d.Sources() {
		singles = append(singles, SourceQualityRow{
			Source:    s.Name,
			Precision: est.Precision(s.ID),
			Recall:    est.Recall(s.ID),
		})
	}
	combos := [][]string{{"S2", "S3"}, {"S1", "S3"}, {"S1", "S2", "S4"}, {"S1", "S4", "S5"}}
	var joints []JointQualityRow
	for _, names := range combos {
		subset := make([]triple.SourceID, len(names))
		for i, n := range names {
			id, ok := d.SourceID(n)
			if !ok {
				return nil, nil, fmt.Errorf("experiments: source %s missing", n)
			}
			subset[i] = id
		}
		p, _ := est.JointPrecision(subset)
		r, _ := est.JointRecall(subset)
		joints = append(joints, JointQualityRow{Sources: names, Precision: p, Recall: r})
	}
	return singles, joints, nil
}

// PrintFig1b writes Figure 1b as text tables.
func PrintFig1b(w io.Writer) error {
	singles, joints, err := Fig1b()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1b — extractor quality (Obama example)")
	fmt.Fprintf(w, "%-8s %9s %9s\n", "Source", "Precision", "Recall")
	for _, r := range singles {
		fmt.Fprintf(w, "%-8s %9.2f %9.2f\n", r.Source, r.Precision, r.Recall)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %10s %10s\n", "Sources", "Joint prec", "Joint rec")
	for _, r := range joints {
		name := ""
		for _, s := range r.Sources {
			name += s
		}
		fmt.Fprintf(w, "%-12s %10.2f %10.2f\n", name, r.Precision, r.Recall)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 1c — Union-K on the running example.

// UnionRow is one line of Figure 1c.
type UnionRow struct {
	K                           int
	Precision, Recall, FMeasure float64
}

// Fig1c recomputes Figure 1c: Union-25/50/75 on the Obama example.
func Fig1c() ([]UnionRow, error) {
	d := dataset.Obama()
	ids := dataset.ProvidedLabeled(d)
	labels := dataset.GoldLabels(d, ids)
	var rows []UnionRow
	for _, k := range []int{25, 50, 75} {
		u, err := baseline.NewUnionK(d, k)
		if err != nil {
			return nil, err
		}
		me := evalRun(u.Name(), u.Score(ids), u.Decisions(ids), labels, 0)
		rows = append(rows, UnionRow{
			K:         k,
			Precision: me.Metrics.Precision(),
			Recall:    me.Metrics.Recall(),
			FMeasure:  me.Metrics.F1(),
		})
	}
	return rows, nil
}

// PrintFig1c writes Figure 1c as a text table.
func PrintFig1c(w io.Writer) error {
	rows, err := Fig1c()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1c — naive voting on the Obama example")
	fmt.Fprintf(w, "%-10s %9s %9s %9s\n", "Method", "Precision", "Recall", "F-measure")
	for _, r := range rows {
		fmt.Fprintf(w, "Union-%-4d %9.2f %9.2f %9.2f\n", r.K, r.Precision, r.Recall, r.FMeasure)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 3 — aggressive correlation parameters of the running example.

// Fig3 recomputes the C⁺/C⁻ factors of the aggressive approximation for the
// five Obama extractors, using the joint parameters the paper gives in
// Section 4 (r12345 = 0.11, q12345 = 0.037 and the leave-one-out joints they
// imply). The factors cannot be counted empirically on this example: no
// triple is provided by all five extractors, so the counted all-source joint
// recall is 0 — exactly the degenerate case of Proposition 4.8, in which our
// estimator falls back to the independence value 1.
func Fig3() (sources []string, cplus, cminus []float64, err error) {
	d := dataset.Obama()
	m := quality.NewManual(0.5)
	type sq struct{ r, q float64 }
	singles := map[string]sq{
		"S1": {2.0 / 3, 0.5}, "S2": {0.5, 2.0 / 3}, "S3": {2.0 / 3, 1.0 / 6},
		"S4": {2.0 / 3, 1.0 / 3}, "S5": {2.0 / 3, 1.0 / 3},
	}
	ids := make(map[string]triple.SourceID, len(singles))
	for name, v := range singles {
		id, ok := d.SourceID(name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("experiments: source %s missing", name)
		}
		ids[name] = id
		m.SetSource(id, v.r, v.q)
	}
	subset := func(names ...string) []triple.SourceID {
		out := make([]triple.SourceID, len(names))
		for i, n := range names {
			out[i] = ids[n]
		}
		return out
	}
	// Paper-given joint parameters (Example 4.4 and Figure 3).
	m.SetJointRecall(subset("S1", "S2", "S3", "S4", "S5"), 0.11)
	m.SetJointFPR(subset("S1", "S2", "S3", "S4", "S5"), 0.037)
	m.SetJointRecall(subset("S2", "S3", "S4", "S5"), 1.0/6)
	m.SetJointFPR(subset("S2", "S3", "S4", "S5"), 0.037)
	m.SetJointRecall(subset("S1", "S3", "S4", "S5"), 0.22)
	m.SetJointFPR(subset("S1", "S3", "S4", "S5"), 0.037/(2.0/3))
	m.SetJointRecall(subset("S1", "S2", "S4", "S5"), 0.22)
	m.SetJointFPR(subset("S1", "S2", "S4", "S5"), 0.22)
	m.SetJointRecall(subset("S1", "S2", "S3", "S5"), 0.11)
	m.SetJointFPR(subset("S1", "S2", "S3", "S5"), 0.037)
	m.SetJointRecall(subset("S1", "S2", "S3", "S4"), 0.11)
	m.SetJointFPR(subset("S1", "S2", "S3", "S4"), 0.037)

	group := make([]triple.SourceID, d.NumSources())
	for i := range group {
		group[i] = triple.SourceID(i)
		sources = append(sources, d.SourceName(group[i]))
	}
	cplus, cminus = quality.AggressiveFactors(m, group)
	return sources, cplus, cminus, nil
}

// PrintFig3 writes Figure 3 as a text table.
func PrintFig3(w io.Writer) error {
	sources, cplus, cminus, err := Fig3()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3 — aggressive-approximation correlation parameters")
	fmt.Fprintf(w, "%-4s", "")
	for _, s := range sources {
		fmt.Fprintf(w, " %8s", s)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-4s", "C+")
	for _, v := range cplus {
		fmt.Fprintf(w, " %8.2f", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-4s", "C-")
	for _, v := range cminus {
		fmt.Fprintf(w, " %8.2f", v)
	}
	fmt.Fprintln(w)
	return nil
}

// ---------------------------------------------------------------------------
// Figure 4 — method comparison on the three (simulated) datasets.

// Fig4 runs the full method suite on the named dataset ("reverb",
// "restaurant" or "book").
func Fig4(name string, seed int64) ([]MethodEval, error) {
	b, err := DatasetByName(name)
	if err != nil {
		return nil, err
	}
	d, err := b.Build(seed)
	if err != nil {
		return nil, err
	}
	opts := Options{Seed: seed, ExactCorrelation: b.Exact, ClusterSources: b.Cluster,
		SubjectScope: b.SubjectScope, Smoothing: b.Smoothing,
		MinJointSupport: b.MinJointSupport, MaxClusterSize: b.MaxClusterSize}
	return EvaluateAll(d, opts)
}

// PrintFig4 writes the Figure 4 tables (bars + curve areas) for a dataset.
func PrintFig4(w io.Writer, name string, seed int64) error {
	evals, err := Fig4(name, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4 — fusion results on %s (simulated, seed %d)\n", name, seed)
	PrintMethodEvals(w, evals)
	return nil
}

// PrintMethodEvals writes a method comparison table.
func PrintMethodEvals(w io.Writer, evals []MethodEval) {
	fmt.Fprintf(w, "%-18s %9s %9s %9s %8s %8s %12s\n",
		"Method", "Precision", "Recall", "F1", "AUC-PR", "AUC-ROC", "Time")
	for _, e := range evals {
		fmt.Fprintf(w, "%-18s %9.3f %9.3f %9.3f %8.3f %8.3f %12s\n",
			e.Method, e.Metrics.Precision(), e.Metrics.Recall(), e.Metrics.F1(),
			e.AUCPR, e.AUCROC, e.Elapsed.Round(time.Microsecond))
	}
}

// CurvePoints returns the PR and ROC curves for a completed evaluation, for
// callers that want to re-plot Figure 4's curves.
func CurvePoints(me MethodEval) (pr, roc []eval.Point) {
	return eval.PRCurve(me.Scores, me.Labels), eval.ROCCurve(me.Scores, me.Labels)
}

// ---------------------------------------------------------------------------
// Figure 5a — elastic approximation levels.

// ElasticLevelResult is the F-measure trajectory of the elastic
// approximation on one dataset, from the aggressive estimate to the
// reference (exact where feasible, deepest level otherwise).
type ElasticLevelResult struct {
	Dataset    string
	Aggressive float64
	ByLevel    []float64 // F-measure at λ = 0, 1, 2, …
	Reference  float64   // exact F-measure (or deepest level for BOOK)
	ExactRef   bool
}

// Fig5a sweeps elastic levels 0..maxLevel on the named dataset.
func Fig5a(name string, seed int64, maxLevel int) (*ElasticLevelResult, error) {
	b, err := DatasetByName(name)
	if err != nil {
		return nil, err
	}
	d, err := b.Build(seed)
	if err != nil {
		return nil, err
	}
	var scope triple.Scope = triple.ScopeGlobal{}
	if b.SubjectScope {
		scope = triple.NewScopeSubject(d)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: DeriveAlpha(d), Scope: scope,
		Smoothing: b.Smoothing, MinJointSupport: b.MinJointSupport})
	if err != nil {
		return nil, err
	}
	ids := dataset.ProvidedLabeled(d)
	labels := dataset.GoldLabels(d, ids)
	cfg := core.Config{Dataset: d, Params: est, Scope: scope}
	if b.Cluster {
		cfg.Clusters = cluster.Cluster(est, cluster.Options{MaxClusterSize: b.MaxClusterSize})
	}

	f1 := func(a core.Algorithm) float64 {
		scores := a.Score(ids)
		return eval.Classify(scores, labels, 0.5).F1()
	}

	res := &ElasticLevelResult{Dataset: b.Name}
	ag, err := core.NewAggressive(cfg)
	if err != nil {
		return nil, err
	}
	res.Aggressive = f1(ag)
	for l := 0; l <= maxLevel; l++ {
		el, err := core.NewElastic(cfg, l)
		if err != nil {
			return nil, err
		}
		res.ByLevel = append(res.ByLevel, f1(el))
	}
	if b.Exact {
		ex, err := core.NewExact(cfg)
		if err != nil {
			return nil, err
		}
		res.Reference = f1(ex)
		res.ExactRef = true
	} else if len(res.ByLevel) > 0 {
		res.Reference = res.ByLevel[len(res.ByLevel)-1]
	}
	return res, nil
}

// PrintFig5a writes the level sweep for all three datasets.
func PrintFig5a(w io.Writer, seed int64, maxLevel int) error {
	fmt.Fprintln(w, "Figure 5a — elastic approximation levels (F-measure)")
	fmt.Fprintf(w, "%-12s %10s", "Dataset", "aggressive")
	for l := 0; l <= maxLevel; l++ {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("lvl-%d", l))
	}
	fmt.Fprintf(w, " %8s\n", "exact")
	marked := false
	for _, name := range []string{"reverb", "restaurant", "book"} {
		res, err := Fig5a(name, seed, maxLevel)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10.3f", res.Dataset, res.Aggressive)
		for _, v := range res.ByLevel {
			fmt.Fprintf(w, " %7.3f", v)
		}
		mark := ""
		if !res.ExactRef {
			mark = "*"
			marked = true
		}
		fmt.Fprintf(w, " %7.3f%s\n", res.Reference, mark)
	}
	if marked {
		fmt.Fprintln(w, "(* deepest computed level; exact is infeasible at this width)")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 5b — runtime comparison.

// Fig5b measures wall-clock runtimes of every method on every dataset and
// returns rows keyed by method name, matching the layout of Figure 5b.
func Fig5b(seed int64) (methods []string, columns []string, cells map[string]map[string]time.Duration, err error) {
	cells = make(map[string]map[string]time.Duration)
	for _, b := range Datasets() {
		columns = append(columns, b.Name)
		d, err := b.Build(seed)
		if err != nil {
			return nil, nil, nil, err
		}
		evals, err := EvaluateAll(d, Options{Seed: seed, ExactCorrelation: b.Exact, ClusterSources: b.Cluster,
			SubjectScope: b.SubjectScope, Smoothing: b.Smoothing,
			MinJointSupport: b.MinJointSupport, MaxClusterSize: b.MaxClusterSize})
		if err != nil {
			return nil, nil, nil, err
		}
		for _, e := range evals {
			if cells[e.Method] == nil {
				cells[e.Method] = make(map[string]time.Duration)
				methods = append(methods, e.Method)
			}
			cells[e.Method][b.Name] = e.Elapsed
		}
	}
	return methods, columns, cells, nil
}

// PrintFig5b writes the runtime table.
func PrintFig5b(w io.Writer, seed int64) error {
	methods, columns, cells, err := Fig5b(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 5b — runtimes")
	fmt.Fprintf(w, "%-18s", "Method")
	for _, c := range columns {
		fmt.Fprintf(w, " %12s", c)
	}
	fmt.Fprintln(w)
	for _, m := range methods {
		fmt.Fprintf(w, "%-18s", m)
		for _, c := range columns {
			fmt.Fprintf(w, " %12s", cells[m][c].Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 6 — synthetic sweeps with independent sources.

// SweepPoint is the F-measure of every method at one sweep coordinate,
// averaged over repetitions.
type SweepPoint struct {
	Label string
	F1    map[string]float64
}

// SweepConfig describes one Figure 6 panel.
type SweepConfig struct {
	// TrueFraction of the 1000-triple dataset.
	TrueFraction float64
	// Points are (precision, recall) coordinates of the sweep.
	Points [][2]float64
	// Reps is the number of random repetitions averaged (paper: 10).
	Reps int
	Seed int64
}

// Fig6a returns the paper's panel (a): low precision p=0.1, recall swept,
// 25% true triples.
func Fig6a() SweepConfig {
	return SweepConfig{
		TrueFraction: 0.25,
		Points: [][2]float64{
			{0.1, 0.025}, {0.1, 0.075}, {0.1, 0.125}, {0.1, 0.175}, {0.1, 0.225},
		},
		Reps: 10,
		Seed: 1,
	}
}

// Fig6b returns panel (b): high precision p=0.75, recall swept, 50% true.
func Fig6b() SweepConfig {
	return SweepConfig{
		TrueFraction: 0.5,
		Points: [][2]float64{
			{0.75, 0.075}, {0.75, 0.225}, {0.75, 0.375}, {0.75, 0.525}, {0.75, 0.675},
		},
		Reps: 10,
		Seed: 2,
	}
}

// Fig6c returns panel (c): low recall r=0.25, precision swept, 25% true.
func Fig6c() SweepConfig {
	return SweepConfig{
		TrueFraction: 0.25,
		Points: [][2]float64{
			{0.1, 0.25}, {0.3, 0.25}, {0.5, 0.25}, {0.7, 0.25}, {0.9, 0.25},
		},
		Reps: 10,
		Seed: 3,
	}
}

// RunSweep executes a Figure 6 sweep: 5 independent sources over 1000
// triples per the panel config, averaging method F-measures over Reps
// repetitions.
func RunSweep(cfg SweepConfig) ([]SweepPoint, error) {
	var out []SweepPoint
	for pi, pt := range cfg.Points {
		prec, rec := pt[0], pt[1]
		sums := make(map[string]float64)
		var names []string
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + int64(pi*1000+rep)
			spec := dataset.UniformSpec(5, 1000, cfg.TrueFraction, prec, rec, seed)
			d, err := dataset.Generate(spec)
			if err != nil {
				return nil, err
			}
			evals, err := EvaluateAll(d, Options{Seed: seed, ExactCorrelation: true, LTMIterations: 10})
			if err != nil {
				return nil, err
			}
			for _, e := range evals {
				if _, seen := sums[e.Method]; !seen && rep == 0 {
					names = append(names, e.Method)
				}
				sums[e.Method] += e.Metrics.F1()
			}
		}
		point := SweepPoint{
			Label: fmt.Sprintf("p=%.2g r=%.3g", prec, rec),
			F1:    make(map[string]float64, len(sums)),
		}
		for _, n := range names {
			point.F1[n] = sums[n] / float64(cfg.Reps)
		}
		out = append(out, point)
	}
	return out, nil
}

// PrintSweep writes a Figure 6 panel as a table: one row per method, one
// column per sweep coordinate.
func PrintSweep(w io.Writer, title string, points []SweepPoint) {
	fmt.Fprintln(w, title)
	var methods []string
	for m := range points[0].F1 {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	fmt.Fprintf(w, "%-18s", "Method \\ config")
	for _, p := range points {
		fmt.Fprintf(w, " %16s", p.Label)
	}
	fmt.Fprintln(w)
	for _, m := range methods {
		fmt.Fprintf(w, "%-18s", m)
		for _, p := range points {
			fmt.Fprintf(w, " %16.3f", p.F1[m])
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 7 — synthetic correlated sources.

// Fig7 evaluates all methods on the two correlated-synthetic scenarios:
// positive correlation on true triples, and anti-correlation on false
// triples. It returns the per-scenario evaluations.
func Fig7(seed int64, reps int) (map[string][]SweepPoint, error) {
	if reps <= 0 {
		reps = 5
	}
	out := make(map[string][]SweepPoint)
	for _, scenario := range []struct {
		name string
		anti bool
	}{{"correlation", false}, {"anti-correlation", true}} {
		sums := make(map[string]float64)
		var names []string
		for rep := 0; rep < reps; rep++ {
			d, err := dataset.SyntheticCorrelated(seed+int64(rep), scenario.anti)
			if err != nil {
				return nil, err
			}
			evals, err := EvaluateAll(d, Options{Seed: seed, ExactCorrelation: true})
			if err != nil {
				return nil, err
			}
			for _, e := range evals {
				if _, seen := sums[e.Method]; !seen && rep == 0 {
					names = append(names, e.Method)
				}
				sums[e.Method] += e.Metrics.F1()
			}
		}
		pt := SweepPoint{Label: scenario.name, F1: make(map[string]float64)}
		for _, n := range names {
			pt.F1[n] = sums[n] / float64(reps)
		}
		out[scenario.name] = []SweepPoint{pt}
	}
	return out, nil
}

// PrintFig7 writes the Figure 7 comparison.
func PrintFig7(w io.Writer, seed int64, reps int) error {
	res, err := Fig7(seed, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7 — synthetic data with correlated sources (F-measure)")
	var scenarios []string
	for s := range res {
		scenarios = append(scenarios, s)
	}
	sort.Strings(scenarios)
	var methods []string
	for m := range res[scenarios[0]][0].F1 {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	fmt.Fprintf(w, "%-18s", "Method")
	for _, s := range scenarios {
		fmt.Fprintf(w, " %18s", s)
	}
	fmt.Fprintln(w)
	for _, m := range methods {
		fmt.Fprintf(w, "%-18s", m)
		for _, s := range scenarios {
			fmt.Fprintf(w, " %18.3f", res[s][0].F1[m])
		}
		fmt.Fprintln(w)
	}
	return nil
}
