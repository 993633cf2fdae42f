package quality

import (
	"math"
	"testing"
	"testing/quick"

	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

func tr(o string) triple.Triple {
	return triple.Triple{Subject: "e", Predicate: "p", Object: o}
}

// buildSimple: A provides {1t, 2t, 3f}; B provides {1t, 4f}; triple 5t is
// provided by nobody. t = true, f = false.
func buildSimple(t *testing.T) (*triple.Dataset, triple.SourceID, triple.SourceID) {
	t.Helper()
	d := triple.NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	d.Observe(a, tr("1"))
	d.Observe(a, tr("2"))
	d.Observe(a, tr("3"))
	d.Observe(b, tr("1"))
	d.Observe(b, tr("4"))
	for _, o := range []string{"1", "2", "5"} {
		d.SetLabel(tr(o), triple.True)
	}
	for _, o := range []string{"3", "4"} {
		d.SetLabel(tr(o), triple.False)
	}
	return d, a, b
}

func TestEstimatorSingles(t *testing.T) {
	d, a, b := buildSimple(t)
	e, err := NewEstimator(d, Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Precision(a); !stat.ApproxEqual(got, 2.0/3, 1e-12) {
		t.Errorf("precision(A) = %v", got)
	}
	if got := e.Recall(a); !stat.ApproxEqual(got, 2.0/3, 1e-12) {
		t.Errorf("recall(A) = %v", got)
	}
	if got := e.Precision(b); !stat.ApproxEqual(got, 0.5, 1e-12) {
		t.Errorf("precision(B) = %v", got)
	}
	if got := e.Recall(b); !stat.ApproxEqual(got, 1.0/3, 1e-12) {
		t.Errorf("recall(B) = %v", got)
	}
	// Theorem 3.5: qA = (1-2/3)/(2/3) · 2/3 = 1/3 with α = 0.5.
	if got := e.FPR(a); !stat.ApproxEqual(got, 1.0/3, 1e-12) {
		t.Errorf("FPR(A) = %v", got)
	}
	if !e.Good(a) {
		t.Error("A should be good (r > q)")
	}
	// B: qB = 1 · 1/3 = 1/3 = rB → not good.
	if e.Good(b) {
		t.Error("B should not be good (r == q)")
	}
}

func TestEstimatorJoint(t *testing.T) {
	d, a, b := buildSimple(t)
	e, err := NewEstimator(d, Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pair := []triple.SourceID{a, b}
	p, ok := e.JointPrecision(pair)
	if !ok || !stat.ApproxEqual(p, 1, 1e-12) {
		t.Errorf("joint precision = %v (ok=%v), want 1", p, ok)
	}
	r, ok := e.JointRecall(pair)
	if !ok || !stat.ApproxEqual(r, 1.0/3, 1e-12) {
		t.Errorf("joint recall = %v (ok=%v), want 1/3", r, ok)
	}
	q, ok := e.JointFPR(pair)
	if !ok || !stat.ApproxEqual(q, 0, 1e-12) {
		t.Errorf("joint FPR = %v (ok=%v), want 0 (perfect joint precision)", q, ok)
	}
	// Order must not matter.
	r2, _ := e.JointRecall([]triple.SourceID{b, a})
	if r2 != r {
		t.Error("joint recall depends on subset order")
	}
}

func TestJointNoSupport(t *testing.T) {
	d := triple.NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	d.Observe(a, tr("1"))
	d.Observe(b, tr("2"))
	d.SetLabel(tr("1"), triple.True)
	d.SetLabel(tr("2"), triple.True)
	e, err := NewEstimator(d, Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.JointPrecision([]triple.SourceID{a, b}); ok {
		t.Error("disjoint sources should have unsupported joint precision")
	}
	if _, ok := e.JointFPR([]triple.SourceID{a, b}); ok {
		t.Error("joint FPR should propagate missing support")
	}
	if r, ok := e.JointRecall([]triple.SourceID{a, b}); !ok || r != 0 {
		t.Errorf("joint recall = (%v, %v), want (0, true)", r, ok)
	}
}

func TestMinJointSupport(t *testing.T) {
	d, a, b := buildSimple(t)
	e, err := NewEstimator(d, Options{Alpha: 0.5, MinJointSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Only one labeled triple is provided by both → below support 2.
	if _, ok := e.JointPrecision([]triple.SourceID{a, b}); ok {
		t.Error("joint precision should be suppressed below MinJointSupport")
	}
}

func TestNoTrueTriples(t *testing.T) {
	d := triple.NewDataset()
	a := d.AddSource("A")
	d.Observe(a, tr("1"))
	d.SetLabel(tr("1"), triple.False)
	if _, err := NewEstimator(d, Options{Alpha: 0.5}); err == nil {
		t.Error("expected error with no true training triples")
	}
}

func TestAlphaValidation(t *testing.T) {
	d, _, _ := buildSimple(t)
	defer func() {
		if recover() == nil {
			t.Error("Alpha outside (0,1) should panic")
		}
	}()
	_, _ = NewEstimator(d, Options{Alpha: 0})
}

func TestSmoothing(t *testing.T) {
	d := triple.NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	d.Observe(a, tr("1"))
	d.Observe(b, tr("2")) // b provides only a false triple → raw p = 0
	d.SetLabel(tr("1"), triple.True)
	d.SetLabel(tr("2"), triple.False)
	raw, err := NewEstimator(d, Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Precision(b) != 0 || raw.FPR(b) != 1 {
		t.Errorf("raw: p=%v q=%v, want 0 and 1", raw.Precision(b), raw.FPR(b))
	}
	sm, err := NewEstimator(d, Options{Alpha: 0.5, Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := sm.Precision(b); p <= 0 || p >= 0.5 {
		t.Errorf("smoothed precision = %v, want in (0, 0.5)", p)
	}
	if q := sm.FPR(b); q >= 1 {
		t.Errorf("smoothed FPR = %v, want < 1", q)
	}
}

func TestDeriveFPRTheorem35(t *testing.T) {
	// The derivation must invert the precision formula:
	// p = αr / (αr + (1−α)q).
	f := func(rawAlpha, rawP, rawR float64) bool {
		alpha := 0.05 + 0.9*math.Abs(math.Mod(rawAlpha, 1))
		p := 0.05 + 0.9*math.Abs(math.Mod(rawP, 1))
		r := 0.05 + 0.9*math.Abs(math.Mod(rawR, 1))
		q := DeriveFPR(alpha, p, r)
		if q >= 1 || q <= 0 {
			return true // clamped; identity does not apply
		}
		back := alpha * r / (alpha*r + (1-alpha)*q)
		return stat.ApproxEqual(back, p, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGoodSourceCondition(t *testing.T) {
	// Theorem 3.5: p > α implies q < r.
	for _, alpha := range []float64{0.2, 0.5, 0.8} {
		for _, p := range []float64{0.1, 0.3, 0.6, 0.9} {
			for _, r := range []float64{0.2, 0.5, 0.9} {
				q := DeriveFPR(alpha, p, r)
				if p > alpha && q >= r && r > 0 {
					t.Errorf("p=%v > α=%v but q=%v >= r=%v", p, alpha, q, r)
				}
			}
		}
	}
}

func TestManualParams(t *testing.T) {
	m := NewManual(0.4)
	if m.Alpha() != 0.4 {
		t.Error("Alpha")
	}
	m.SetSource(0, 0.7, 0.2)
	m.SetSource(1, 0.6, 0.1)
	if m.Recall(0) != 0.7 || m.FPR(1) != 0.1 {
		t.Error("single-source getters")
	}
	pair := []triple.SourceID{0, 1}
	if _, ok := m.JointRecall(pair); ok {
		t.Error("unset joint should be unsupported")
	}
	m.SetJointRecall(pair, 0.5)
	m.SetJointFPR(pair, 0.05)
	if r, ok := m.JointRecall([]triple.SourceID{1, 0}); !ok || r != 0.5 {
		t.Error("joint recall should be order-insensitive")
	}
	if q, ok := m.JointFPR(pair); !ok || q != 0.05 {
		t.Error("joint FPR")
	}
	if r, ok := m.JointRecall([]triple.SourceID{0}); !ok || r != 0.7 {
		t.Error("singleton joint should fall back to Recall")
	}
}

func TestCorrelationFactors(t *testing.T) {
	m := NewManual(0.5)
	m.SetSource(0, 0.5, 0.2)
	m.SetSource(1, 0.4, 0.1)
	pair := []triple.SourceID{0, 1}
	m.SetJointRecall(pair, 0.3) // > 0.2 = independent product → positive
	m.SetJointFPR(pair, 0.01)   // < 0.02 → negative on false
	ct, ok := CorrelationTrue(m, pair)
	if !ok || !stat.ApproxEqual(ct, 1.5, 1e-12) {
		t.Errorf("C_true = %v (ok=%v), want 1.5", ct, ok)
	}
	cf, ok := CorrelationFalse(m, pair)
	if !ok || !stat.ApproxEqual(cf, 0.5, 1e-12) {
		t.Errorf("C_false = %v (ok=%v), want 0.5", cf, ok)
	}
}

func TestAggressiveFactorsIndependence(t *testing.T) {
	m := NewManual(0.5)
	m.SetSource(0, 0.5, 0.2)
	m.SetSource(1, 0.4, 0.1)
	m.SetSource(2, 0.6, 0.3)
	group := []triple.SourceID{0, 1, 2}
	// Products everywhere → independence → all factors 1 (Corollary 4.6).
	for _, sub := range [][]triple.SourceID{{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}} {
		m.SetJointRecall(sub, IndepJointRecall(m, sub))
		m.SetJointFPR(sub, IndepJointFPR(m, sub))
	}
	cp, cm := AggressiveFactors(m, group)
	for i := range cp {
		if !stat.ApproxEqual(cp[i], 1, 1e-9) || !stat.ApproxEqual(cm[i], 1, 1e-9) {
			t.Errorf("factor[%d] = (%v, %v), want (1, 1)", i, cp[i], cm[i])
		}
	}
}

func TestAggressiveFactorsFallback(t *testing.T) {
	m := NewManual(0.5)
	m.SetSource(0, 0.5, 0.2)
	m.SetSource(1, 0.4, 0.1)
	// No joint parameters at all → factors fall back to 1.
	cp, cm := AggressiveFactors(m, []triple.SourceID{0, 1})
	for i := range cp {
		if cp[i] != 1 || cm[i] != 1 {
			t.Errorf("fallback factor[%d] = (%v, %v)", i, cp[i], cm[i])
		}
	}
	// Singleton group: trivially 1.
	cp, cm = AggressiveFactors(m, []triple.SourceID{0})
	if len(cp) != 1 || cp[0] != 1 || cm[0] != 1 {
		t.Error("singleton group factors should be 1")
	}
}

func TestScopedRecall(t *testing.T) {
	// A covers only subject "x"; its recall should not be penalized for
	// true triples about "y".
	d := triple.NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	x1 := triple.Triple{Subject: "x", Predicate: "p", Object: "1"}
	x2 := triple.Triple{Subject: "x", Predicate: "p", Object: "2"}
	y1 := triple.Triple{Subject: "y", Predicate: "p", Object: "1"}
	d.Observe(a, x1)
	d.Observe(b, x1)
	d.Observe(b, y1)
	d.SetLabel(x1, triple.True)
	d.SetLabel(x2, triple.True)
	d.SetLabel(y1, triple.True)

	global, err := NewEstimator(d, Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := global.Recall(a); !stat.ApproxEqual(got, 1.0/3, 1e-12) {
		t.Errorf("global recall(A) = %v, want 1/3", got)
	}
	scoped, err := NewEstimator(d, Options{Alpha: 0.5, Scope: triple.NewScopeSubject(d)})
	if err != nil {
		t.Fatal(err)
	}
	if got := scoped.Recall(a); !stat.ApproxEqual(got, 0.5, 1e-12) {
		t.Errorf("scoped recall(A) = %v, want 1/2 (x-triples only)", got)
	}
	// Scoped joint recall of {A,B} conditions on the joint scope (x's).
	r, ok := scoped.JointRecall([]triple.SourceID{a, b})
	if !ok || !stat.ApproxEqual(r, 0.5, 1e-12) {
		t.Errorf("scoped joint recall = %v (ok=%v), want 1/2", r, ok)
	}
}

func TestTrainSubset(t *testing.T) {
	d, a, _ := buildSimple(t)
	// Restrict training to triples 1 (true) and 3 (false).
	var train []triple.TripleID
	for _, o := range []string{"1", "3"} {
		id, _ := d.TripleID(tr(o))
		train = append(train, id)
	}
	e, err := NewEstimator(d, Options{Alpha: 0.5, Train: train})
	if err != nil {
		t.Fatal(err)
	}
	// A provides both training triples, 1 of which is true.
	if got := e.Precision(a); !stat.ApproxEqual(got, 0.5, 1e-12) {
		t.Errorf("precision(A) on train subset = %v, want 0.5", got)
	}
	if got := e.Recall(a); !stat.ApproxEqual(got, 1, 1e-12) {
		t.Errorf("recall(A) on train subset = %v, want 1", got)
	}
}
