package triple

import "fmt"

// InsertRow records one row of a source-by-triple file in a single step:
// every source of provs provides t, and t takes label l when l is not Unknown
// or the row names no provider (a label-only row: its label, Unknown included,
// replaces the stored one). It equals calling Observe(s, t) for each s and
// then SetLabel under that rule, but interns t once, and for a new triple —
// the common case in a file with one row per triple — cuts the provider list
// at its exact size and appends to each source's output list, the new ID
// being the largest. provs may repeat a source and need not be sorted; it is
// not retained.
func (d *Dataset) InsertRow(t Triple, provs []SourceID, l Label) TripleID {
	for _, s := range provs {
		if int(s) < 0 || int(s) >= len(d.sources) {
			panic(fmt.Sprintf("triple: InsertRow with unregistered source %d", s))
		}
	}
	d.row = append(d.row[:0], provs...)
	id, _ := d.insertRow(t, l)
	return id
}

// FalseTriples returns the IDs of all triples labeled False.
func (d *Dataset) FalseTriples() []TripleID {
	out := make([]TripleID, 0, len(d.labels))
	for id, l := range d.labels {
		if l == False {
			out = append(out, TripleID(id))
		}
	}
	return out
}
