// Package triple defines the data model for multi-source data fusion:
// knowledge triples, data sources, and the observation matrix relating them.
//
// The model follows Section 2 of "Fusing Data with Correlations" (SIGMOD'14):
// a set of sources S = {S1..Sn}, each providing a set of output triples Oi.
// Semantics are independent-triple and open-world: the truthfulness of each
// triple is independent of other triples, and a source that does not provide
// a triple is agnostic about it rather than claiming it false.
package triple

import (
	"fmt"
	"sort"
)

// Triple is one unit of data: a {subject, predicate, object} statement,
// equivalently a cell {row-entity, column-attribute, value}.
type Triple struct {
	Subject   string
	Predicate string
	Object    string
}

// String renders the triple in the paper's curly-brace notation.
func (t Triple) String() string {
	return fmt.Sprintf("{%s, %s, %s}", t.Subject, t.Predicate, t.Object)
}

// Key returns a canonical string key for the triple, usable as a map key in
// serialized form. Components are joined with a separator that is unlikely to
// appear in data; the in-memory struct itself is already comparable.
func (t Triple) Key() string {
	return t.Subject + "\x1f" + t.Predicate + "\x1f" + t.Object
}

// SourceID identifies a data source within a Dataset. IDs are dense indexes
// assigned in registration order, so they can index slices and bitsets.
type SourceID int

// TripleID identifies a distinct triple within a Dataset. IDs are dense
// indexes assigned in first-observation order.
type TripleID int

// Source describes one data source (an extractor, a website, a seller…).
type Source struct {
	ID   SourceID
	Name string
}

// Label is the gold-standard truth label of a triple.
type Label int8

// Label values. Unknown means no gold label is available for the triple.
const (
	Unknown Label = iota
	True
	False
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// Gold returns the label's spelling in store files and on the wire: "true",
// "false", or "" for Unknown.
func (l Label) Gold() string {
	if l == Unknown {
		return ""
	}
	return l.String()
}

// ParseGold is the inverse of Gold; ok is false for any other spelling.
func ParseGold(s string) (l Label, ok bool) {
	switch s {
	case "":
		return Unknown, true
	case "true":
		return True, true
	case "false":
		return False, true
	}
	return Unknown, false
}

// Dataset holds a set of sources, the distinct triples they provide, the
// observation matrix (which source provides which triple), and optional gold
// labels. The zero value is an empty dataset ready for use.
//
// Dataset is not safe for concurrent mutation; concurrent reads are fine.
type Dataset struct {
	sources []Source
	triples []Triple

	sourceByName map[string]SourceID
	tripleByKey  map[Triple]TripleID

	// providers[t] lists, in ascending order, the sources that provide t.
	providers [][]SourceID
	// outputs[s] lists, in ascending order, the triples provided by s.
	outputs [][]TripleID

	labels []Label
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		sourceByName: make(map[string]SourceID),
		tripleByKey:  make(map[Triple]TripleID),
	}
}

// NewDatasetCap returns an empty dataset with capacity hints for the number
// of sources and distinct triples it will hold, so bulk loads (the shard
// partitioner, store conversions) avoid incremental map and slice growth.
// The hints are not limits.
func NewDatasetCap(sources, triples int) *Dataset {
	return &Dataset{
		sourceByName: make(map[string]SourceID, sources),
		tripleByKey:  make(map[Triple]TripleID, triples),
		sources:      make([]Source, 0, sources),
		outputs:      make([][]TripleID, 0, sources),
		triples:      make([]Triple, 0, triples),
		providers:    make([][]SourceID, 0, triples),
		labels:       make([]Label, 0, triples),
	}
}

// AddSource registers a source by name and returns its ID. Registering the
// same name twice returns the existing ID.
func (d *Dataset) AddSource(name string) SourceID {
	if d.sourceByName == nil {
		d.sourceByName = make(map[string]SourceID)
	}
	if id, ok := d.sourceByName[name]; ok {
		return id
	}
	id := SourceID(len(d.sources))
	d.sources = append(d.sources, Source{ID: id, Name: name})
	d.sourceByName[name] = id
	d.outputs = append(d.outputs, nil)
	return id
}

// internTriple returns the ID for t, registering it if new.
func (d *Dataset) internTriple(t Triple) TripleID {
	if d.tripleByKey == nil {
		d.tripleByKey = make(map[Triple]TripleID)
	}
	if id, ok := d.tripleByKey[t]; ok {
		return id
	}
	id := TripleID(len(d.triples))
	d.triples = append(d.triples, t)
	d.tripleByKey[t] = id
	d.providers = append(d.providers, nil)
	d.labels = append(d.labels, Unknown)
	return id
}

// Observe records that source s provides triple t, returning t's ID.
// Duplicate observations are idempotent.
func (d *Dataset) Observe(s SourceID, t Triple) TripleID {
	if int(s) < 0 || int(s) >= len(d.sources) {
		panic(fmt.Sprintf("triple: Observe with unregistered source %d", s))
	}
	id := d.internTriple(t)
	if !containsSource(d.providers[id], s) {
		d.providers[id] = insertSource(d.providers[id], s)
		d.outputs[s] = insertTriple(d.outputs[s], id)
	}
	return id
}

// SetLabel assigns a gold-standard label to triple t. The triple is interned
// if it has not been observed yet (a gold triple missed by every source).
func (d *Dataset) SetLabel(t Triple, l Label) TripleID {
	id := d.internTriple(t)
	d.labels[id] = l
	return id
}

// NumSources returns the number of registered sources.
func (d *Dataset) NumSources() int { return len(d.sources) }

// NumTriples returns the number of distinct triples.
func (d *Dataset) NumTriples() int { return len(d.triples) }

// Sources returns the registered sources in ID order. The returned slice
// must not be modified.
func (d *Dataset) Sources() []Source { return d.sources }

// SourceID returns the ID of the named source.
func (d *Dataset) SourceID(name string) (SourceID, bool) {
	id, ok := d.sourceByName[name]
	return id, ok
}

// SourceName returns the name of source s.
func (d *Dataset) SourceName(s SourceID) string { return d.sources[s].Name }

// Triple returns the triple with the given ID.
func (d *Dataset) Triple(id TripleID) Triple { return d.triples[id] }

// TripleID returns the ID of t if it has been observed or labeled.
func (d *Dataset) TripleID(t Triple) (TripleID, bool) {
	id, ok := d.tripleByKey[t]
	return id, ok
}

// Label returns the gold label of triple id (Unknown if none).
func (d *Dataset) Label(id TripleID) Label { return d.labels[id] }

// Providers returns the sources that provide triple id, in ascending ID
// order. The returned slice must not be modified.
func (d *Dataset) Providers(id TripleID) []SourceID { return d.providers[id] }

// Provides reports whether source s provides triple id.
func (d *Dataset) Provides(s SourceID, id TripleID) bool {
	return containsSource(d.providers[id], s)
}

// Output returns the triples provided by source s, in ascending ID order.
// The returned slice must not be modified.
func (d *Dataset) Output(s SourceID) []TripleID { return d.outputs[s] }

// OutputSize returns |Oi| for source s.
func (d *Dataset) OutputSize(s SourceID) int { return len(d.outputs[s]) }

// Labeled returns the IDs of all triples with a non-Unknown gold label,
// in ascending ID order.
func (d *Dataset) Labeled() []TripleID {
	out := make([]TripleID, 0, len(d.labels))
	for id, l := range d.labels {
		if l != Unknown {
			out = append(out, TripleID(id))
		}
	}
	return out
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

// CountLabels returns the number of True and False gold labels.
func (d *Dataset) CountLabels() (numTrue, numFalse int) {
	for _, l := range d.labels {
		switch l {
		case True:
			numTrue++
		case False:
			numFalse++
		}
	}
	return
}

// Validate checks internal consistency (index symmetry, ordering). It is
// intended for tests and for data loaded from external files.
func (d *Dataset) Validate() error {
	if len(d.providers) != len(d.triples) || len(d.labels) != len(d.triples) {
		return fmt.Errorf("triple: index length mismatch")
	}
	if len(d.outputs) != len(d.sources) {
		return fmt.Errorf("triple: outputs length mismatch")
	}
	for id, provs := range d.providers {
		if !sort.SliceIsSorted(provs, func(i, j int) bool { return provs[i] < provs[j] }) {
			return fmt.Errorf("triple: providers of %d not sorted", id)
		}
		for _, s := range provs {
			if int(s) < 0 || int(s) >= len(d.sources) {
				return fmt.Errorf("triple: provider %d of triple %d out of range", s, id)
			}
			if !containsTriple(d.outputs[s], TripleID(id)) {
				return fmt.Errorf("triple: asymmetric observation (%d, %d)", s, id)
			}
		}
	}
	for s, out := range d.outputs {
		for _, id := range out {
			if !containsSource(d.providers[id], SourceID(s)) {
				return fmt.Errorf("triple: asymmetric output (%d, %d)", s, id)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := NewDataset()
	c.sources = append([]Source(nil), d.sources...)
	c.triples = append([]Triple(nil), d.triples...)
	c.labels = append([]Label(nil), d.labels...)
	for name, id := range d.sourceByName {
		c.sourceByName[name] = id
	}
	for t, id := range d.tripleByKey {
		c.tripleByKey[t] = id
	}
	c.providers = make([][]SourceID, len(d.providers))
	for i, p := range d.providers {
		c.providers[i] = append([]SourceID(nil), p...)
	}
	c.outputs = make([][]TripleID, len(d.outputs))
	for i, o := range d.outputs {
		c.outputs[i] = append([]TripleID(nil), o...)
	}
	return c
}

func containsSource(xs []SourceID, s SourceID) bool {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= s })
	return i < len(xs) && xs[i] == s
}

func insertSource(xs []SourceID, s SourceID) []SourceID {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= s })
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = s
	return xs
}

func containsTriple(xs []TripleID, t TripleID) bool {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= t })
	return i < len(xs) && xs[i] == t
}

func insertTriple(xs []TripleID, t TripleID) []TripleID {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= t })
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = t
	return xs
}
