package index

// Made returns the number of entries the index has materialised, for the
// tests that count the work a read does.
func (idx *Index) Made() int64 { return idx.made.Load() }

// SetHashPrime lets a test make every provider set hash alike.
var SetHashPrime = &setHashPrime
