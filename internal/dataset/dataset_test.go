package dataset

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"corrfuse/internal/quality"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

func TestGenerateValidation(t *testing.T) {
	bad := []SyntheticSpec{
		{NumTrue: 0, Sources: []SourceSpec{{Precision: 0.5, Recall: 0.5}}},
		{NumTrue: 10, NumFalse: -1, Sources: []SourceSpec{{Precision: 0.5, Recall: 0.5}}},
		{NumTrue: 10},
		{NumTrue: 10, Sources: []SourceSpec{{Precision: 0, Recall: 0.5}}},
		{NumTrue: 10, Sources: []SourceSpec{{Precision: 0.5, Recall: 1.5}}},
		{NumTrue: 10, Sources: []SourceSpec{{Precision: 0.5, Recall: 0.5}},
			Groups: []GroupSpec{{Members: []int{0}, Strength: 2}}},
		{NumTrue: 10, Sources: []SourceSpec{{Precision: 0.5, Recall: 0.5}},
			Groups: []GroupSpec{{Members: []int{1}, Strength: 0.5}}},
		{NumTrue: 10, Sources: []SourceSpec{{Precision: 0.5, Recall: 0.5}},
			Groups: []GroupSpec{
				{Members: []int{0}, OnTrue: true, Strength: 0.5},
				{Members: []int{0}, OnTrue: true, Strength: 0.5},
			}},
	}
	for i, spec := range bad {
		if _, err := Generate(spec); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
}

// TestGenerateCalibration: realized source precision and recall match the
// configured targets within sampling tolerance.
func TestGenerateCalibration(t *testing.T) {
	spec := UniformSpec(4, 4000, 0.4, 0.7, 0.5, 123)
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	nt, nf := d.CountLabels()
	if nt != 1600 || nf != 2400 {
		t.Fatalf("labels = (%d, %d), want (1600, 2400)", nt, nf)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < d.NumSources(); s++ {
		sid := triple.SourceID(s)
		if p := est.Precision(sid); math.Abs(p-0.7) > 0.05 {
			t.Errorf("source %d precision = %v, want ≈ 0.7", s, p)
		}
		if r := est.Recall(sid); math.Abs(r-0.5) > 0.05 {
			t.Errorf("source %d recall = %v, want ≈ 0.5", s, r)
		}
	}
}

// TestGenerateDeterminism: the same seed gives the same dataset.
func TestGenerateDeterminism(t *testing.T) {
	spec := UniformSpec(3, 500, 0.5, 0.6, 0.4, 77)
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTriples() != b.NumTriples() {
		t.Fatal("triple counts differ")
	}
	for i := 0; i < a.NumTriples(); i++ {
		id := triple.TripleID(i)
		pa, pb := a.Providers(id), b.Providers(id)
		if len(pa) != len(pb) {
			t.Fatalf("providers differ at %d", i)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("providers differ at %d", i)
			}
		}
	}
}

// TestGroupCorrelationRealized: a strong positive group pushes the pairwise
// joint recall above the independence product.
func TestGroupCorrelationRealized(t *testing.T) {
	spec := UniformSpec(4, 3000, 0.5, 0.7, 0.4, 99)
	spec.Groups = []GroupSpec{{Members: []int{0, 1}, OnTrue: true, Strength: 0.9}}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	corr, ok := quality.CorrelationTrue(est, []triple.SourceID{0, 1})
	if !ok || corr < 1.5 {
		t.Errorf("grouped pair C_true = %v (ok=%v), want > 1.5", corr, ok)
	}
	indep, ok := quality.CorrelationTrue(est, []triple.SourceID{2, 3})
	if !ok || indep > 1.3 || indep < 0.7 {
		t.Errorf("independent pair C_true = %v (ok=%v), want ≈ 1", indep, ok)
	}
}

// TestWindowComplementarity: disjoint windows produce negative correlation.
func TestWindowComplementarity(t *testing.T) {
	spec := SyntheticSpec{
		NumTrue:  2000,
		NumFalse: 2000,
		Seed:     5,
		Sources: []SourceSpec{
			{Precision: 0.6, Recall: 0.3, TrueWindow: Window{Lo: 0, Hi: 0.5}},
			{Precision: 0.6, Recall: 0.3, TrueWindow: Window{Lo: 0.5, Hi: 1}},
		},
	}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := est.JointRecall([]triple.SourceID{0, 1})
	if !ok || r > 0.01 {
		t.Errorf("joint recall of disjoint windows = %v, want ≈ 0", r)
	}
}

func TestWindowHelpers(t *testing.T) {
	if !(Window{}).full() || !(Window{0, 1}).full() {
		t.Error("zero and unit windows should be full")
	}
	w := Window{Lo: 0.2, Hi: 0.7}
	if w.full() {
		t.Error("partial window reported full")
	}
	if got := w.width(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("width = %v", got)
	}
	if !w.contains(0.2) || w.contains(0.7) || w.contains(0.1) {
		t.Error("contains broken")
	}
	if (Window{Lo: 0.9, Hi: 0.5}).width() != 0 {
		t.Error("inverted window should have zero width")
	}
}

func TestEntityGeneration(t *testing.T) {
	spec := EntitySpec{
		NumEntities:    100,
		TruePerEntity:  2,
		FalsePerEntity: 4,
		Seed:           3,
		Sources: []EntitySourceSpec{
			{Name: "good", Coverage: 0.8, Accuracy: 0.9, ClaimsPerEntity: 1.5},
			{Name: "bad", Coverage: 0.5, Accuracy: 0.3},
			{Name: "tiny", Coverage: 0.05, Accuracy: 0.7},
		},
	}
	d, err := GenerateEntities(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	nt, _ := d.CountLabels()
	if nt != 200 {
		t.Errorf("true labels = %d, want 200 (all correct values labeled)", nt)
	}
	// The accurate source should realize much higher precision.
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	good, _ := d.SourceID("good")
	bad, _ := d.SourceID("bad")
	if pg, pb := est.Precision(good), est.Precision(bad); pg < pb+0.2 {
		t.Errorf("precision(good)=%v should clearly exceed precision(bad)=%v", pg, pb)
	}
	// Subjects are shared between true and false triples of one entity.
	subjHasBoth := false
	bySubj := map[string][2]bool{}
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		tr := d.Triple(id)
		e := bySubj[tr.Subject]
		if d.Label(id) == triple.True {
			e[0] = true
		} else if d.Label(id) == triple.False {
			e[1] = true
		}
		bySubj[tr.Subject] = e
		if e[0] && e[1] {
			subjHasBoth = true
		}
	}
	if !subjHasBoth {
		t.Error("entity generation should mix true and false triples per subject")
	}
}

func TestEntityCopyingGroup(t *testing.T) {
	spec := EntitySpec{
		NumEntities:    400,
		TruePerEntity:  1,
		FalsePerEntity: 5,
		Seed:           9,
		Sources: []EntitySourceSpec{
			{Coverage: 0.5, Accuracy: 0.6},
			{Coverage: 0.5, Accuracy: 0.6},
			{Coverage: 0.5, Accuracy: 0.6},
		},
		Groups: []EntityGroupSpec{{Members: []int{0, 1}, Strength: 0.9}},
	}
	d, err := GenerateEntities(spec)
	if err != nil {
		t.Fatal(err)
	}
	est, err := quality.NewEstimator(d, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	copied, _ := quality.CorrelationTrue(est, []triple.SourceID{0, 1})
	indep, _ := quality.CorrelationTrue(est, []triple.SourceID{0, 2})
	if copied < indep+0.3 {
		t.Errorf("copying pair C=%v should clearly exceed independent pair C=%v", copied, indep)
	}
}

func TestEntityValidation(t *testing.T) {
	base := EntitySpec{
		NumEntities: 10, TruePerEntity: 1, FalsePerEntity: 2,
		Sources: []EntitySourceSpec{{Coverage: 0.5, Accuracy: 0.5}},
	}
	bad := []func(EntitySpec) EntitySpec{
		func(s EntitySpec) EntitySpec { s.NumEntities = 0; return s },
		func(s EntitySpec) EntitySpec { s.TruePerEntity = 0; return s },
		func(s EntitySpec) EntitySpec { s.Sources = nil; return s },
		func(s EntitySpec) EntitySpec { s.Sources[0].Coverage = 2; return s },
		func(s EntitySpec) EntitySpec {
			s.Groups = []EntityGroupSpec{{Members: []int{5}, Strength: 0.5}}
			return s
		},
	}
	for i, mod := range bad {
		if _, err := GenerateEntities(mod(base)); err == nil {
			t.Errorf("case %d should be rejected", i)
		}
		base = EntitySpec{
			NumEntities: 10, TruePerEntity: 1, FalsePerEntity: 2,
			Sources: []EntitySourceSpec{{Coverage: 0.5, Accuracy: 0.5}},
		}
	}
}

func TestSimulatedDatasetsShape(t *testing.T) {
	rv, err := SimulatedReVerb(1)
	if err != nil {
		t.Fatal(err)
	}
	if rv.NumSources() != 6 {
		t.Errorf("ReVerb sources = %d, want 6", rv.NumSources())
	}
	nt, nf := rv.CountLabels()
	if nt != 616 || nf != 1791 {
		t.Errorf("ReVerb labels = (%d, %d), want (616, 1791)", nt, nf)
	}

	rs, err := SimulatedRestaurant(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumSources() != 7 {
		t.Errorf("Restaurant sources = %d, want 7", rs.NumSources())
	}
	nt, nf = rs.CountLabels()
	if nt != 68 || nf != 25 {
		t.Errorf("Restaurant labels = (%d, %d), want (68, 25)", nt, nf)
	}

	bk, err := SimulatedBook(1)
	if err != nil {
		t.Fatal(err)
	}
	if bk.NumSources() != 333 {
		t.Errorf("Book sources = %d, want 333", bk.NumSources())
	}
	nt, nf = bk.CountLabels()
	if nt != 450 || nf < 500 {
		t.Errorf("Book labels = (%d, %d), want 450 true and several hundred false", nt, nf)
	}
}

func TestProvidedLabeledAndGoldLabels(t *testing.T) {
	d := Obama()
	ids := ProvidedLabeled(d)
	if len(ids) != 10 {
		t.Fatalf("Obama provided labeled = %d, want 10", len(ids))
	}
	labels := GoldLabels(d, ids)
	nTrue := 0
	for _, l := range labels {
		if l {
			nTrue++
		}
	}
	if nTrue != 6 {
		t.Errorf("true labels = %d, want 6", nTrue)
	}
}

func TestIORoundTrip(t *testing.T) {
	d, err := SimulatedRestaurant(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTriples() != d.NumTriples() {
		t.Fatalf("triples: %d vs %d", back.NumTriples(), d.NumTriples())
	}
	nt1, nf1 := d.CountLabels()
	nt2, nf2 := back.CountLabels()
	if nt1 != nt2 || nf1 != nf2 {
		t.Fatalf("labels: (%d,%d) vs (%d,%d)", nt1, nf1, nt2, nf2)
	}
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		tr := d.Triple(id)
		backID, ok := back.TripleID(tr)
		if !ok {
			t.Fatalf("triple %v lost", tr)
		}
		if back.Label(backID) != d.Label(id) {
			t.Errorf("label mismatch for %v", tr)
		}
		if len(back.Providers(backID)) != len(d.Providers(id)) {
			t.Errorf("provider count mismatch for %v", tr)
		}
		for _, s := range d.Providers(id) {
			name := d.SourceName(s)
			bs, ok := back.SourceID(name)
			if !ok || !back.Provides(bs, backID) {
				t.Errorf("provider %s lost for %v", name, tr)
			}
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("not json\n")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := Read(bytes.NewBufferString(`{"subject":"s","predicate":"p","object":"o","label":"maybe"}` + "\n")); err == nil {
		t.Error("unknown label should fail")
	}
	// Blank lines are fine.
	d, err := Read(bytes.NewBufferString("\n" + `{"subject":"s","predicate":"p","object":"o","sources":["A"],"label":"true"}` + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTriples() != 1 || d.NumSources() != 1 {
		t.Error("valid line not parsed")
	}
	// A line over the reader's cap is a line-numbered error like any other.
	long := `{"subject":"s","predicate":"p","object":"o"}` + "\n" + `{"subject":"` + strings.Repeat("x", 5<<20) + `","predicate":"p","object":"o"}` + "\n"
	if _, err := Read(strings.NewReader(long)); err == nil || !strings.Contains(err.Error(), "dataset: line 2: longer than") {
		t.Errorf("over-long line: %v", err)
	}
}

// refRead is Read as it was before the row insert, kept as its reference:
// one Observe per (source, triple) pair and a SetLabel per labeled row.
func refRead(t *testing.T, raw []byte) *triple.Dataset {
	t.Helper()
	d := triple.NewDataset()
	err := store.ReadRecords(bytes.NewReader(raw), func(rec *store.Record) {
		tr := triple.Triple{Subject: rec.Subject, Predicate: rec.Predicate, Object: rec.Object}
		for _, name := range rec.Sources {
			d.Observe(d.AddSource(name), tr)
		}
		if l, _ := triple.ParseGold(rec.Label); l != triple.Unknown || len(rec.Sources) == 0 {
			d.SetLabel(tr, l)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestReadEqualsObserveLoop: Read and ReadFile assign the IDs and build the
// lists the per-pair loop does, on a generated file and on one with a source
// repeated inside a row, a triple on several rows, label-only rows, an
// unlabeled row after a labeled one and a source first named on the last row.
func TestReadEqualsObserveLoop(t *testing.T) {
	gen, err := Generate(benchShape(2000))
	if err != nil {
		t.Fatal(err)
	}
	var generated bytes.Buffer
	if err := Write(&generated, gen); err != nil {
		t.Fatal(err)
	}
	const row = `{"subject":"s","predicate":"p","object":"o1"`
	crafted := strings.Join([]string{
		row + `,"sources":["b","a","b","a"],"label":"true"}`,
		`{"subject":"gold","predicate":"p","object":"missed","label":"false"}`,
		row + `,"sources":["c"]}`,
		`{"subject":"s","predicate":"p","object":"o2","sources":["c","a"],"probability":0.25,"accepted":true}`,
		row + `}`,
		`{"subject":"bare","predicate":"p","object":"o"}`,
		`{"subject":"s","predicate":"p","object":"o2","sources":["late","a"],"label":"false"}`,
	}, "\n")
	for name, raw := range map[string][]byte{"generated": generated.Bytes(), "crafted": []byte(crafted)} {
		want := refRead(t, raw)
		path := filepath.Join(t.TempDir(), "in.jsonl")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fromStream, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for how, got := range map[string]*triple.Dataset{"Read": fromStream, "ReadFile": fromFile} {
			if err := got.Validate(); err != nil {
				t.Fatalf("%s, %s: %v", name, how, err)
			}
			same := slices.Equal(got.Sources(), want.Sources()) && got.NumTriples() == want.NumTriples()
			for i := 0; same && i < want.NumTriples(); i++ {
				id := triple.TripleID(i)
				same = got.Triple(id) == want.Triple(id) && got.Label(id) == want.Label(id) && slices.Equal(got.Providers(id), want.Providers(id))
			}
			for _, src := range want.Sources() {
				same = same && slices.Equal(got.Output(src.ID), want.Output(src.ID))
			}
			if !same {
				t.Errorf("%s: %s built a different dataset than the per-pair loop", name, how)
			}
		}
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("ReadFile of a missing file should fail")
	}
}

// TestReadPipelineErrors: a malformed line at the first row, at the last row
// of the first batch, at the first row of the second and at the last row of
// the file, and an over-long line, each make ReadFile and Read return the
// error store.ReadRecords itself returns for that stream (wrapped as it always
// was), and leave no decoder goroutine behind.
func TestReadPipelineErrors(t *testing.T) {
	d, err := Generate(benchShape(3000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	broken := map[string]string{}
	for _, at := range []int{1, readBatch, readBatch + 1, len(lines)} {
		bad := slices.Clone(lines)
		bad[at-1] = `{"subject":"s","predicate":"p","object":"o","label":"maybe"}` + "\n"
		broken[fmt.Sprintf("malformed row %d", at)] = strings.Join(bad, "")
	}
	long := slices.Clone(lines)
	long[readBatch] = `{"subject":"` + strings.Repeat("x", 5<<20) + `","predicate":"p","object":"o"}` + "\n"
	broken["over-long row 1025"] = strings.Join(long, "")

	before := runtime.NumGoroutine()
	for name, raw := range broken {
		refErr := store.ReadRecords(strings.NewReader(raw), func(*store.Record) {})
		if refErr == nil {
			t.Fatalf("%s: the reader accepts the stream", name)
		}
		want := "dataset: " + refErr.Error()
		path := filepath.Join(t.TempDir(), "in.jsonl")
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, errFile := ReadFile(path)
		fromStream, errStream := Read(strings.NewReader(raw))
		for how, got := range map[string]error{"ReadFile": errFile, "Read": errStream} {
			if got == nil || got.Error() != want {
				t.Errorf("%s: %s returned %v, want %q", name, how, got, want)
			}
		}
		if fromFile != nil || fromStream != nil {
			t.Errorf("%s: a dataset came back with the error", name)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed reads, %d before", n, before)
	}
}

// benchShape is the batch-fuse benchmark's dataset (bench/data.go's
// fuseSpec) at a chosen size: 12 sources, three correlated groups.
func benchShape(triples int) SyntheticSpec {
	spec := SyntheticSpec{NumTrue: triples / 2, NumFalse: triples - triples/2, Seed: 1, SubjectPrefix: "fact"}
	for i := 0; i < 12; i++ {
		spec.Sources = append(spec.Sources, SourceSpec{
			Precision:   0.55 + 0.025*float64(i),
			Recall:      0.25 + 0.025*float64((i*5)%12),
			FalseWindow: Window{Lo: 0, Hi: 0.8},
		})
	}
	spec.Sources[11].FalseWindow = Window{Lo: 0.75, Hi: 1}
	spec.Groups = []GroupSpec{
		{Members: []int{0, 1, 2, 3}, OnTrue: true, Strength: 0.7},
		{Members: []int{4, 5, 6}, OnTrue: false, Strength: 0.7},
		{Members: []int{7, 8}, OnTrue: true, Strength: 0.5},
	}
	return spec
}

// TestReadAllocationBudget: a row costs its subject string, its Sources
// slice, its provider slice and an amortised share of the dataset's growth;
// the repeated names, the predicate, the object and the label come from the
// reader's intern table. Measured on these 2 000 rows: 12.7 allocations per
// row at the parent commit (a fresh string per value, providers grown
// 1-2-4-8), 3.0 here.
func TestReadAllocationBudget(t *testing.T) {
	d, err := Generate(benchShape(2000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw, rows := buf.Bytes(), float64(d.NumTriples())
	perRow := testing.AllocsPerRun(5, func() {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	}) / rows
	t.Logf("dataset.Read: %.2f allocations per row over %.0f rows", perRow, rows)
	if perRow > 5 {
		t.Errorf("dataset.Read allocates %.2f times per row, budget 5", perRow)
	}
}

func TestSyntheticCorrelatedScenarios(t *testing.T) {
	pos, err := SyntheticCorrelated(1, false)
	if err != nil {
		t.Fatal(err)
	}
	est, err := quality.NewEstimator(pos, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := quality.CorrelationTrue(est, []triple.SourceID{0, 1})
	if !ok || c < 1.3 {
		t.Errorf("positive scenario pair C_true = %v, want > 1.3", c)
	}

	anti, err := SyntheticCorrelated(1, true)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := quality.NewEstimator(anti, quality.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Distant windows: near-zero overlap.
	c2, ok := quality.CorrelationTrue(est2, []triple.SourceID{0, 4})
	if ok && c2 > 0.5 {
		t.Errorf("anti scenario distant pair C_true = %v, want < 0.5", c2)
	}
}
