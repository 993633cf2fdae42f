package quality

import "corrfuse/internal/triple"

// Good reports whether s is a good source in the paper's sense (ri > qi): it
// is more likely to provide a true triple than a false one.
func (e *Estimator) Good(s triple.SourceID) bool { return e.rec[s] > e.fpr[s] }
