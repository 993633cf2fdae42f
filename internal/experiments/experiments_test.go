package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corrfuse/internal/dataset"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

func TestFig1bMatchesPaper(t *testing.T) {
	singles, joints, err := Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	if len(singles) != 5 || len(joints) != 4 {
		t.Fatalf("shape: %d singles, %d joints", len(singles), len(joints))
	}
	// Paper values, rounded as in Figure 1b.
	wantP := []float64{0.57, 0.43, 0.80, 0.67, 0.67}
	for i, row := range singles {
		if !stat.ApproxEqual(row.Precision, wantP[i], 0.01) {
			t.Errorf("precision(%s) = %.3f, want %.2f", row.Source, row.Precision, wantP[i])
		}
	}
	if !stat.ApproxEqual(joints[1].Precision, 1.0, 1e-9) {
		t.Errorf("joint precision S1S3 = %v, want 1", joints[1].Precision)
	}
	if !stat.ApproxEqual(joints[3].Recall, 0.5, 1e-9) {
		t.Errorf("joint recall S1S4S5 = %v, want 0.5", joints[3].Recall)
	}
}

func TestFig1cMatchesPaper(t *testing.T) {
	rows, err := Fig1c()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ p, r, f float64 }{
		{0.56, 0.83, 0.67},
		{0.71, 0.83, 0.77},
		{0.60, 0.50, 0.55},
	}
	for i, row := range rows {
		if !stat.ApproxEqual(row.Precision, want[i].p, 0.01) ||
			!stat.ApproxEqual(row.Recall, want[i].r, 0.01) ||
			!stat.ApproxEqual(row.FMeasure, want[i].f, 0.01) {
			t.Errorf("Union-%d = (%.2f, %.2f, %.2f), want (%.2f, %.2f, %.2f)",
				row.K, row.Precision, row.Recall, row.FMeasure, want[i].p, want[i].r, want[i].f)
		}
	}
}

func TestFig3MatchesPaper(t *testing.T) {
	_, cplus, cminus, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	wantPlus := []float64{1, 1, 0.75, 1.5, 1.5}
	wantMinus := []float64{2, 1, 1, 3, 3}
	for i := range wantPlus {
		if !stat.ApproxEqual(cplus[i], wantPlus[i], 0.02) {
			t.Errorf("C+[%d] = %.3f, want %.2f", i, cplus[i], wantPlus[i])
		}
		if !stat.ApproxEqual(cminus[i], wantMinus[i], 0.02) {
			t.Errorf("C-[%d] = %.3f, want %.2f", i, cminus[i], wantMinus[i])
		}
	}
}

// TestFig4Shape asserts the qualitative findings of Figure 4 on each
// simulated dataset: PrecRecCorr has the best F-measure among all methods
// (or ties the best within a small margin), and 3-Estimates is the weakest
// of the non-voting methods.
func TestFig4Shape(t *testing.T) {
	for _, name := range []string{"reverb", "restaurant", "book"} {
		evals, err := Fig4(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		byName := map[string]MethodEval{}
		bestF1 := 0.0
		for _, e := range evals {
			byName[e.Method] = e
			if e.Metrics.F1() > bestF1 {
				bestF1 = e.Metrics.F1()
			}
		}
		corr := byName["PrecRecCorr"]
		if corr.Metrics.F1() < bestF1-0.02 {
			t.Errorf("%s: PrecRecCorr F1 %.3f not within 0.02 of best %.3f",
				name, corr.Metrics.F1(), bestF1)
		}
		if corr.Metrics.F1() < byName["3-Estimates"].Metrics.F1() {
			t.Errorf("%s: PrecRecCorr below 3-Estimates", name)
		}
		// Correlation awareness should not hurt the ranking quality much
		// and usually helps (paper: AUC-PR +10.3%% on average).
		pr := byName["PrecRec"]
		if corr.AUCROC < pr.AUCROC-0.05 {
			t.Errorf("%s: PrecRecCorr AUC-ROC %.3f well below PrecRec %.3f",
				name, corr.AUCROC, pr.AUCROC)
		}
	}
}

// TestFig5aShape: the aggressive estimate is the worst of the elastic
// family, and deeper levels approach the exact reference.
func TestFig5aShape(t *testing.T) {
	res, err := Fig5a("reverb", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactRef {
		t.Fatal("reverb should have an exact reference")
	}
	last := res.ByLevel[len(res.ByLevel)-1]
	if res.Aggressive > last {
		t.Errorf("aggressive %.3f should not beat level-%d %.3f",
			res.Aggressive, len(res.ByLevel)-1, last)
	}
	gapLast := abs(last - res.Reference)
	gapAggr := abs(res.Aggressive - res.Reference)
	if gapLast > gapAggr {
		t.Errorf("deep level gap %.3f should be <= aggressive gap %.3f", gapLast, gapAggr)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestFig7Shape: PrecRecCorr benefits from modeling correlation in both
// scenarios.
func TestFig7Shape(t *testing.T) {
	res, err := Fig7(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for scenario, pts := range res {
		f1 := pts[0].F1
		if f1["PrecRecCorr"] < f1["PrecRec"]-1e-9 {
			t.Errorf("%s: PrecRecCorr %.3f below PrecRec %.3f",
				scenario, f1["PrecRecCorr"], f1["PrecRec"])
		}
	}
	corr := res["correlation"][0].F1
	for m, v := range corr {
		if m == "PrecRecCorr" {
			continue
		}
		if corr["PrecRecCorr"] < v {
			t.Errorf("correlation scenario: PrecRecCorr %.3f below %s %.3f",
				corr["PrecRecCorr"], m, v)
		}
	}
}

// TestRunSweepSmoke runs a minimal Figure-6-style sweep.
func TestRunSweepSmoke(t *testing.T) {
	cfg := SweepConfig{
		TrueFraction: 0.5,
		Points:       [][2]float64{{0.75, 0.375}},
		Reps:         2,
		Seed:         1,
	}
	points, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	if len(points[0].F1) < 6 {
		t.Errorf("methods = %d, want the full suite", len(points[0].F1))
	}
	for m, v := range points[0].F1 {
		if v < 0 || v > 1 {
			t.Errorf("%s F1 = %v out of range", m, v)
		}
	}
	// In this easy regime the paper's methods beat raw 3-Estimates.
	if points[0].F1["PrecRec"] < points[0].F1["3-Estimates"] {
		t.Error("PrecRec should beat 3-Estimates at p=0.75")
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := PrintFig1b(&buf); err != nil {
		t.Fatal(err)
	}
	if err := PrintFig1c(&buf); err != nil {
		t.Fatal(err)
	}
	if err := PrintFig3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := PrintFig4(&buf, "restaurant", 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 1b", "Figure 1c", "Figure 3", "Figure 4", "PrecRecCorr"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Runtimes print at microsecond resolution: no method takes 0s.
	fig4 := out[strings.Index(out, "Figure 4"):]
	for _, line := range strings.Split(strings.TrimSpace(fig4), "\n")[2:] {
		if f := strings.Fields(line); f[len(f)-1] == "0s" {
			t.Errorf("Figure 4 prints a 0s runtime: %q", line)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	for _, name := range []string{"reverb", "ReVerb", "BOOK", "Restaurant"} {
		if _, err := DatasetByName(name); err != nil {
			t.Errorf("DatasetByName(%q): %v", name, err)
		}
	}
	if _, err := DatasetByName("imaginary"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestDeriveAlpha(t *testing.T) {
	d := dataset.Obama()
	if got := DeriveAlpha(d); !stat.ApproxEqual(got, 0.6, 1e-9) {
		t.Errorf("DeriveAlpha(obama) = %v, want 0.6", got)
	}
	unlabeled := triple.NewDataset()
	s := unlabeled.AddSource("A")
	unlabeled.Observe(s, triple.Triple{Subject: "e", Predicate: "p", Object: "v"})
	if got := DeriveAlpha(unlabeled); got != 0.5 {
		t.Errorf("DeriveAlpha(no labels) = %v, want 0.5", got)
	}
}

func TestWriteCurves(t *testing.T) {
	evals, err := Fig4("restaurant", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCurves(dir, "Restaurant", evals); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2*len(evals) {
		t.Fatalf("wrote %d files, want %d", len(entries), 2*len(evals))
	}
	raw, err := os.ReadFile(filepath.Join(dir, "restaurant-precreccorr-roc.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatal("curve too short")
	}
	for _, l := range lines {
		if !strings.Contains(l, "\t") {
			t.Fatalf("malformed line %q", l)
		}
	}
}
