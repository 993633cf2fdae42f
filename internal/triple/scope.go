package triple

// Scope determines which sources are "in scope" for a triple: a source that
// does not provide t counts as evidence against t only when t is within the
// source's scope (Section 2.1: Ot contains the observation that Si does not
// provide t only if Si provides other data in the domain of t; Section 2.2:
// recall should be computed with respect to the scope of a source's input).
type Scope interface {
	// InScope reports whether source s should be held accountable for
	// triple id in dataset d.
	InScope(d *Dataset, s SourceID, id TripleID) bool
}

// ScopeGlobal treats every source as in scope for every triple. This matches
// the simplified presentation in the paper ("for simplicity of presentation
// ... we ignore the scope of each source").
type ScopeGlobal struct{}

// InScope implements Scope; it always reports true.
func (ScopeGlobal) InScope(*Dataset, SourceID, TripleID) bool { return true }

// ScopeSubject holds a source in scope for a triple only if the source
// provides at least one triple with the same subject (row entity). It models
// complementary-domain sources: a source that says nothing about Obama is not
// penalized for missing Obama's professions.
//
// ScopeSubject precomputes its index on first use and is therefore only valid
// for a dataset that is no longer being mutated. Build one per dataset with
// NewScopeSubject.
type ScopeSubject struct {
	d *Dataset
	// covers[s] is the set of subjects source s provides data about.
	covers []map[string]bool
}

// NewScopeSubject indexes d by subject per source.
func NewScopeSubject(d *Dataset) *ScopeSubject {
	sc := &ScopeSubject{d: d, covers: make([]map[string]bool, d.NumSources())}
	for s := range sc.covers {
		m := make(map[string]bool)
		for _, id := range d.Output(SourceID(s)) {
			m[d.Triple(id).Subject] = true
		}
		sc.covers[s] = m
	}
	return sc
}

// InScope implements Scope.
func (sc *ScopeSubject) InScope(d *Dataset, s SourceID, id TripleID) bool {
	return sc.Covers(d, s, d.Triple(id).Subject)
}

// Covers reports whether source s is in scope for a triple of the subject in
// d, which need not hold that triple: whether s provides a triple of the
// subject in the indexed dataset.
func (sc *ScopeSubject) Covers(d *Dataset, s SourceID, subject string) bool {
	if d != sc.d {
		// The index was built for a different dataset; be conservative.
		return true
	}
	return sc.covers[s][subject]
}
