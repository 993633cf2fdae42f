// Package eval provides the evaluation metrics used in Section 5 of the
// paper: precision/recall/F1 of binary decisions, precision–recall and ROC
// curves over ranked truthfulness scores, and the areas under those curves.
package eval

import (
	"fmt"
	"sort"

	"corrfuse/internal/stat"
)

// BinaryMetrics summarizes binary classification quality.
type BinaryMetrics struct {
	TP, FP, TN, FN int
}

// Precision returns TP/(TP+FP), or 0 when nothing was returned as true.
func (m BinaryMetrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP/(TP+FN), or 0 when there are no true items.
func (m BinaryMetrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m BinaryMetrics) F1() float64 { return stat.HarmonicMean(m.Precision(), m.Recall()) }

// String implements fmt.Stringer.
func (m BinaryMetrics) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f", m.Precision(), m.Recall(), m.F1())
}

// Classify computes BinaryMetrics by thresholding scores at threshold:
// score > threshold counts as an accepted (returned-true) item. labels[i]
// reports whether item i is actually true.
func Classify(scores []float64, labels []bool, threshold float64) BinaryMetrics {
	if len(scores) != len(labels) {
		panic("eval: scores and labels length mismatch")
	}
	var m BinaryMetrics
	for i, s := range scores {
		accepted := s > threshold
		switch {
		case accepted && labels[i]:
			m.TP++
		case accepted && !labels[i]:
			m.FP++
		case !accepted && labels[i]:
			m.FN++
		default:
			m.TN++
		}
	}
	return m
}

// Point is one point of a PR or ROC curve.
type Point struct {
	X, Y float64
}

// scoreBlock is a group of items sharing one score value, in descending
// score order. Grouping makes the curves tie-aware: all items with equal
// score are added as one step, so the curve (and its area) does not depend
// on the arbitrary input order of tied items.
type scoreBlock struct {
	tp, fp int
}

// blocks groups items by descending score.
func blocks(scores []float64, labels []bool) []scoreBlock {
	if len(scores) != len(labels) {
		panic("eval: scores and labels length mismatch")
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var out []scoreBlock
	for j := 0; j < len(idx); {
		k := j
		var b scoreBlock
		for k < len(idx) && scores[idx[k]] == scores[idx[j]] {
			if labels[idx[k]] {
				b.tp++
			} else {
				b.fp++
			}
			k++
		}
		out = append(out, b)
		j = k
	}
	return out
}

// PRCurve ranks items by descending score and plots precision (Y) versus
// recall (X) after each distinct score threshold, as in the paper's PR-curve
// methodology. Tied scores enter as a single step.
func PRCurve(scores []float64, labels []bool) []Point {
	totalTrue := 0
	for _, l := range labels {
		if l {
			totalTrue++
		}
	}
	points := []Point{{X: 0, Y: 1}} // anchor; Y fixed up after the first block
	tp, fp := 0.0, 0.0
	for _, b := range blocks(scores, labels) {
		// Subdivide the block: under a random order of tied items the
		// expected path mixes the block's positives and negatives
		// uniformly, which the subdivision approximates.
		steps := b.tp + b.fp
		if steps > 64 {
			steps = 64
		}
		for s := 1; s <= steps; s++ {
			f := float64(s) / float64(steps)
			curTP := tp + f*float64(b.tp)
			curFP := fp + f*float64(b.fp)
			var prec, rec float64
			if curTP+curFP > 0 {
				prec = curTP / (curTP + curFP)
			}
			if totalTrue > 0 {
				rec = curTP / float64(totalTrue)
			}
			points = append(points, Point{X: rec, Y: prec})
		}
		tp += float64(b.tp)
		fp += float64(b.fp)
	}
	// Anchor the curve at recall 0 with the precision of the very first
	// ranked step, the usual convention that gives a perfect ranking an
	// area of 1.
	if len(points) > 1 {
		points[0].Y = points[1].Y
	}
	return points
}

// ROCCurve ranks items by descending score and plots the true positive rate
// (Y) versus the false positive rate (X) after each distinct score
// threshold, starting at (0, 0). Tied scores enter as a single step, so the
// area under the curve equals the tie-corrected Mann–Whitney statistic.
func ROCCurve(scores []float64, labels []bool) []Point {
	totalTrue, totalFalse := 0, 0
	for _, l := range labels {
		if l {
			totalTrue++
		} else {
			totalFalse++
		}
	}
	points := []Point{{0, 0}}
	tp, fp := 0, 0
	for _, b := range blocks(scores, labels) {
		tp += b.tp
		fp += b.fp
		var tpr, fpr float64
		if totalTrue > 0 {
			tpr = float64(tp) / float64(totalTrue)
		}
		if totalFalse > 0 {
			fpr = float64(fp) / float64(totalFalse)
		}
		points = append(points, Point{X: fpr, Y: tpr})
	}
	return points
}

// AUC integrates a curve with the trapezoid rule over X. Points must be in
// non-decreasing X order (PRCurve and ROCCurve output satisfy this for X
// produced by cumulative counts).
func AUC(points []Point) float64 {
	if len(points) < 2 {
		return 0
	}
	var k stat.KahanSum
	for i := 1; i < len(points); i++ {
		dx := points[i].X - points[i-1].X
		if dx < 0 {
			dx = 0
		}
		k.Add(dx * (points[i].Y + points[i-1].Y) / 2)
	}
	return k.Sum()
}

// AUCPR returns the area under the precision–recall curve.
func AUCPR(scores []float64, labels []bool) float64 { return AUC(PRCurve(scores, labels)) }

// AUCROC returns the area under the ROC curve.
func AUCROC(scores []float64, labels []bool) float64 { return AUC(ROCCurve(scores, labels)) }
