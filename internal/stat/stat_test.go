package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumCompensates(t *testing.T) {
	// Summing many tiny values onto a large one loses precision naively.
	var k KahanSum
	k.Add(1e16)
	for i := 0; i < 1000; i++ {
		k.Add(1.0)
	}
	if got, want := k.Sum(), 1e16+1000; got != want {
		t.Errorf("KahanSum = %v, want %v", got, want)
	}
}

func TestSigmoidLogitInverse(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 30 {
			return true
		}
		return ApproxEqual(Logit(Sigmoid(x)), x, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp broken")
	}
	if Clamp01(2) != 1 || Clamp01(-1) != 0 {
		t.Error("Clamp01 broken")
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean(1, 1); got != 1 {
		t.Errorf("HarmonicMean(1,1) = %v", got)
	}
	if got := HarmonicMean(0.5, 1); !ApproxEqual(got, 2.0/3, 1e-12) {
		t.Errorf("HarmonicMean(0.5,1) = %v", got)
	}
	if HarmonicMean(0, 1) != 0 {
		t.Error("HarmonicMean with a zero input should be 0")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give same stream")
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) missed")
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := NewRNG(19)
	s := g.SampleWithoutReplacement(10, 5)
	if len(s) != 5 {
		t.Fatalf("sample size %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1, 1, 0) {
		t.Error("identical values")
	}
	if !ApproxEqual(1e12, 1e12+1, 1e-9) {
		t.Error("relative tolerance")
	}
	if ApproxEqual(math.NaN(), 1, 1) {
		t.Error("NaN should never be equal")
	}
}
