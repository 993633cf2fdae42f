package index

// Ranked returns every fused result in global rank order, for the tests that
// compare whole rankings. The slice is shared: callers must not mutate it.
func (idx *Index) Ranked() []Entry { return idx.entries }

// SetHashPrime lets a test make every provider set hash alike.
var SetHashPrime = &setHashPrime
