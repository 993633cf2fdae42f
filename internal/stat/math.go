package stat

import "math"

// KahanSum accumulates floating-point values with Kahan–Babuška compensated
// summation. The zero value is ready to use. It keeps the alternating
// inclusion–exclusion sums of the exact correlation model numerically honest.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum + k.c }

// Sigmoid returns 1/(1+exp(-x)).
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Logit returns log(p/(1-p)), the inverse of Sigmoid. p is clamped to
// (eps, 1-eps) to keep the result finite.
func Logit(p float64) float64 {
	const eps = 1e-12
	p = Clamp(p, eps, 1-eps)
	return math.Log(p / (1 - p))
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp01 bounds v to [0, 1].
func Clamp01(v float64) float64 { return Clamp(v, 0, 1) }

// ApproxEqual reports whether a and b agree within tol absolutely or
// relatively (whichever is looser). NaNs are never equal.
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// HarmonicMean returns the harmonic mean of a and b (the F-measure when a and
// b are precision and recall). It returns 0 if either input is 0.
func HarmonicMean(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}
