package baseline

import "corrfuse/internal/triple"

// SourceError returns the converged error factor ε_s of a source.
func (a *ThreeEstimates) SourceError(s triple.SourceID) float64 { return a.eps[s] }

// Difficulty returns the converged difficulty φ_f of a triple.
func (a *ThreeEstimates) Difficulty(id triple.TripleID) float64 { return a.phi[id] }
