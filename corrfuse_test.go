package corrfuse_test

import (
	"fmt"
	"strings"
	"testing"

	"corrfuse"
	"corrfuse/internal/dataset"
)

// obama returns the Figure-1 running example through the public API surface.
func obama() *corrfuse.Dataset { return dataset.Obama() }

func TestFuseObamaPrecRec(t *testing.T) {
	d := obama()
	f, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	// Section 2.3 headline: precision 0.75, recall 1 → 8 accepted, 6 true.
	if len(res.Accepted) != 8 {
		t.Fatalf("accepted %d triples, want 8", len(res.Accepted))
	}
	trueAccepted := 0
	for _, st := range res.Accepted {
		id, _ := d.TripleID(st.Triple)
		if d.Label(id) == corrfuse.True {
			trueAccepted++
		}
	}
	if trueAccepted != 6 {
		t.Errorf("true accepted = %d, want 6 (precision 0.75)", trueAccepted)
	}
	if len(res.All) != 10 {
		t.Errorf("all = %d, want 10", len(res.All))
	}
	// Ranking is descending.
	for i := 1; i < len(res.All); i++ {
		if res.All[i].Probability > res.All[i-1].Probability {
			t.Fatal("result not sorted by probability")
		}
	}
}

func TestFuseObamaCorrBeatsPrecRec(t *testing.T) {
	d := obama()
	run := func(m corrfuse.Method) (prec, rec float64) {
		f, err := corrfuse.New(d, corrfuse.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Fuse()
		if err != nil {
			t.Fatal(err)
		}
		tp := 0
		for _, st := range res.Accepted {
			id, _ := d.TripleID(st.Triple)
			if d.Label(id) == corrfuse.True {
				tp++
			}
		}
		if len(res.Accepted) == 0 {
			return 0, 0
		}
		return float64(tp) / float64(len(res.Accepted)), float64(tp) / 6
	}
	pIndep, _ := run(corrfuse.PrecRec)
	pCorr, rCorr := run(corrfuse.PrecRecCorr)
	if pCorr < pIndep {
		t.Errorf("correlation-aware precision %v should be >= independent %v", pCorr, pIndep)
	}
	// Section 2.3: the correlation model reaches precision 1 here.
	if pCorr != 1 {
		t.Errorf("PrecRecCorr precision = %v, want 1 (paper §2.3)", pCorr)
	}
	if rCorr < 0.8 {
		t.Errorf("PrecRecCorr recall = %v, want ≈ 0.83", rCorr)
	}
}

func TestAllMethodsRun(t *testing.T) {
	d := obama()
	methods := []corrfuse.Method{
		corrfuse.PrecRec, corrfuse.PrecRecCorr, corrfuse.PrecRecCorrAggressive,
		corrfuse.PrecRecCorrElastic, corrfuse.UnionK, corrfuse.ThreeEstimates, corrfuse.LTM,
	}
	for _, m := range methods {
		f, err := corrfuse.New(d, corrfuse.Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if f.MethodName() == "" {
			t.Errorf("%v: empty method name", m)
		}
		res, err := f.Fuse()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, st := range res.All {
			if st.Probability < 0 || st.Probability > 1 {
				t.Errorf("%v: probability %v out of range", m, st.Probability)
			}
		}
	}
}

func TestProbabilityAndDecide(t *testing.T) {
	d := obama()
	f, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRec})
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := dataset.ObamaTriple(2) // false triple
	p, ok := f.Probability(t2)
	if !ok {
		t.Fatal("t2 should be known")
	}
	if p >= 0.5 {
		t.Errorf("Pr(t2) = %v, want < 0.5", p)
	}
	if acc, known := f.Decide(t2); !known || acc {
		t.Errorf("Decide(t2) = (%v, %v), want (false, true)", acc, known)
	}
	unknown := corrfuse.Triple{Subject: "nobody", Predicate: "none", Object: "x"}
	if _, ok := f.Probability(unknown); ok {
		t.Error("unknown triple reported known")
	}
	if _, known := f.Decide(unknown); known {
		t.Error("unknown triple decided")
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := corrfuse.New(nil, corrfuse.Options{}); err == nil {
		t.Error("nil dataset should fail")
	}
	d := obama()
	if _, err := corrfuse.New(d, corrfuse.Options{Alpha: 1.5}); err == nil {
		t.Error("invalid alpha should fail")
	}
	if _, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.Method(99)}); err == nil {
		t.Error("unknown method should fail")
	}
	if _, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.UnionK, UnionK: 300}); err == nil {
		t.Error("invalid UnionK should fail")
	}
	// A Train ID outside the dataset, or one listed twice (it would be
	// counted once per occurrence), is refused by name.
	labeled := d.Labeled()
	for _, tc := range []struct {
		train []corrfuse.TripleID
		bad   string
	}{
		{[]corrfuse.TripleID{labeled[0], 99}, "99"},
		{[]corrfuse.TripleID{-1}, "-1"},
		{[]corrfuse.TripleID{labeled[0], labeled[0], labeled[0], labeled[1]}, fmt.Sprint(labeled[0])},
	} {
		for _, m := range []corrfuse.Method{corrfuse.PrecRec, corrfuse.PrecRecCorr} {
			_, err := corrfuse.New(d, corrfuse.Options{Method: m, Train: tc.train})
			if err == nil || !strings.Contains(err.Error(), "Train ID "+tc.bad+" ") {
				t.Errorf("%v with Train %v: err = %v, want one naming ID %s", m, tc.train, err, tc.bad)
			}
		}
	}
	// No labels → supervised methods fail.
	empty := corrfuse.NewDataset()
	s := empty.AddSource("A")
	empty.Observe(s, corrfuse.Triple{Subject: "e", Predicate: "p", Object: "v"})
	if _, err := corrfuse.New(empty, corrfuse.Options{Method: corrfuse.PrecRec}); err == nil {
		t.Error("supervised method without labels should fail")
	}
	// Unsupervised methods are fine without labels.
	if _, err := corrfuse.New(empty, corrfuse.Options{Method: corrfuse.UnionK}); err != nil {
		t.Errorf("UnionK without labels: %v", err)
	}
}

func TestClusteringModes(t *testing.T) {
	d, err := dataset.SimulatedBook(5)
	if err != nil {
		t.Fatal(err)
	}
	// ClusterNever with 333 sources and the exact method must fail.
	_, err = corrfuse.New(d, corrfuse.Options{
		Method:     corrfuse.PrecRecCorr,
		Clustering: corrfuse.ClusterNever,
	})
	if err == nil {
		t.Error("exact over 333 sources without clustering should fail")
	}
	// ClusterAuto clusters and succeeds.
	f, err := corrfuse.New(d, corrfuse.Options{
		Method:         corrfuse.PrecRecCorr,
		Scope:          corrfuse.NewScopeSubject(d),
		Smoothing:      0.5,
		MaxClusterSize: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Clusters() == nil {
		t.Error("auto mode should have produced clusters")
	}
	// One 333-wide cluster is past elastic's 64-member limit too: refused
	// at construction (it used to panic while scoring). PrecRec and the
	// aggressive approximation read one log-ratio pair per source, no
	// pattern, and take any width.
	_, err = corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorrElastic, Clustering: corrfuse.ClusterNever, Smoothing: 0.5})
	if err == nil || !strings.Contains(err.Error(), "max 64") {
		t.Errorf("elastic over 333 unclustered sources: err = %v, want the 64-member limit", err)
	}
	for _, m := range []corrfuse.Method{corrfuse.PrecRec, corrfuse.PrecRecCorrAggressive} {
		f, err := corrfuse.New(d, corrfuse.Options{Method: m, Clustering: corrfuse.ClusterNever, Smoothing: 0.5})
		if err != nil {
			t.Errorf("%v without clustering: %v", m, err)
			continue
		}
		res, err := f.Fuse()
		if err != nil {
			t.Errorf("%v over 333 unclustered sources: %v", m, err)
		} else if len(res.All) == 0 {
			t.Errorf("%v over 333 unclustered sources scored nothing", m)
		}
	}
	// Within the limit an unclustered elastic model builds and scores.
	wide, err := dataset.Generate(dataset.UniformSpec(24, 200, 0.5, 0.7, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	el, err := corrfuse.New(wide, corrfuse.Options{Method: corrfuse.PrecRecCorrElastic, Clustering: corrfuse.ClusterNever})
	if err != nil {
		t.Fatalf("elastic over 24 unclustered sources: %v", err)
	}
	res, err := el.Fuse()
	if err != nil || len(res.All) == 0 {
		t.Fatalf("elastic over 24 unclustered sources scored %d triples, err %v", len(res.All), err)
	}
}

func TestMethodString(t *testing.T) {
	names := map[corrfuse.Method]string{
		corrfuse.PrecRec:               "PrecRec",
		corrfuse.PrecRecCorr:           "PrecRecCorr",
		corrfuse.PrecRecCorrElastic:    "PrecRecCorr-Elastic",
		corrfuse.PrecRecCorrAggressive: "PrecRecCorr-Aggressive",
		corrfuse.UnionK:                "Union-K",
		corrfuse.ThreeEstimates:        "3-Estimates",
		corrfuse.LTM:                   "LTM",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if corrfuse.Method(42).String() == "" {
		t.Error("unknown method should render")
	}
}

func TestTrainSplit(t *testing.T) {
	// Using only half the gold labels for training still fuses sensibly.
	// The half is every other labeled triple: the generator labels its true
	// triples first, so the first half alone holds no false triple and is
	// refused as a training set.
	d, err := dataset.SimulatedRestaurant(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	var train, heldOut []corrfuse.TripleID
	for i, id := range d.Labeled() {
		if i%2 == 0 {
			train = append(train, id)
		} else {
			heldOut = append(heldOut, id)
		}
	}
	f, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorr, Train: train})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on the held-out half.
	held := map[corrfuse.TripleID]bool{}
	for _, id := range heldOut {
		held[id] = true
	}
	tp, fp := 0, 0
	for _, st := range res.Accepted {
		if !held[st.ID] {
			continue
		}
		if d.Label(st.ID) == corrfuse.True {
			tp++
		} else {
			fp++
		}
	}
	if tp == 0 {
		t.Fatal("no held-out true triples accepted")
	}
	if prec := float64(tp) / float64(tp+fp); prec < 0.7 {
		t.Errorf("held-out precision = %v, want >= 0.7", prec)
	}
}

func TestClusterAlwaysMode(t *testing.T) {
	d, err := dataset.SimulatedReVerb(11)
	if err != nil {
		t.Fatal(err)
	}
	f, err := corrfuse.New(d, corrfuse.Options{
		Method:     corrfuse.PrecRecCorr,
		Alpha:      0.26,
		Clustering: corrfuse.ClusterAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Clusters() == nil {
		t.Error("ClusterAlways should produce a partition")
	}
	if _, err := f.Fuse(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelismOption(t *testing.T) {
	d, err := dataset.SimulatedReVerb(13)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorr, Alpha: 0.26, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorr, Alpha: 0.26, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := serial.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.All) != len(rp.All) || len(rs.Accepted) != len(rp.Accepted) {
		t.Fatal("parallel and serial fusion disagree on set sizes")
	}
	for i := range rs.All {
		if rs.All[i].Probability != rp.All[i].Probability {
			t.Fatal("parallel and serial fusion disagree on probabilities")
		}
	}
}

func TestElasticLevelOption(t *testing.T) {
	d := obama()
	for _, level := range []int{1, 2, 5} {
		f, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorrElastic, ElasticLevel: level})
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if _, err := f.Fuse(); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
	}
}

// TestTwentySourcesOneCluster is the regression test for the oldest open
// finding (ROADMAP item 2): 20 uniform sources are one correlation cluster
// under the defaults, which used to mean 2²⁰ string-keyed map entries per
// joint statistic and a fusion that never finished. With the dense joint
// table it runs inside an ordinary test, unclustered, and — λ = n makes the
// elastic approximation exact — agrees with Elastic at level 20.
func TestTwentySourcesOneCluster(t *testing.T) {
	d, err := dataset.Generate(dataset.UniformSpec(20, 1500, 0.5, 0.7, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorr})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Clusters() != nil {
		t.Fatalf("default clustering split 20 sources into %d clusters, want one", len(exact.Clusters()))
	}
	elastic, err := corrfuse.New(d, corrfuse.Options{
		Method: corrfuse.PrecRecCorrElastic, ElasticLevel: 20, Clustering: corrfuse.ClusterNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, provided, _ := exact.FrozenScores()
	// Elastic at λ = n costs as much per pattern as the exact sum and reads
	// its terms level by level; a sample keeps the test quick under -race.
	var sample []corrfuse.TripleID
	for id := 0; id < len(provided) && len(sample) < 100; id += 7 {
		if provided[id] {
			sample = append(sample, corrfuse.TripleID(id))
		}
	}
	if len(sample) < 100 {
		t.Fatalf("only %d provided triples sampled", len(sample))
	}
	for i, want := range elastic.Score(sample) {
		if diff := got[sample[i]] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("triple %d: PrecRecCorr %v, Elastic at λ = n %v", sample[i], got[sample[i]], want)
		}
	}
}
