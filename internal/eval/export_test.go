package eval

// Accuracy returns (TP+TN)/total.
func (m BinaryMetrics) Accuracy() float64 {
	total := m.TP + m.FP + m.TN + m.FN
	if total == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(total)
}
