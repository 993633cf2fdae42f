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
	"cmp"
	"fmt"
	"maps"
	"slices"
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
// IDs are assigned in first-appearance order whichever call registers the
// name or the triple first (AddSource, Observe, SetLabel, InsertRow,
// InsertNamedRow): a row-at-a-time build and the equivalent per-pair
// Observe/SetLabel loop yield the same SourceIDs, TripleIDs, provider lists
// and output lists.
//
// Dataset is not safe for concurrent mutation; concurrent reads are fine.
type Dataset struct {
	sources []Source
	triples []Triple

	sourceByName map[string]SourceID
	// tripleByKey maps the base's triples, IDs [0, len(tripleByKey)), to
	// their IDs; appended holds one map per later ID range, oldest first.
	// A derived dataset shares both read-only with the dataset it derives
	// from (sharedKeys), so interning into it first copies them (ownKeys).
	tripleByKey map[Triple]TripleID
	appended    []map[Triple]TripleID
	sharedKeys  bool

	// refs is the total length of the provider lists NewDatasetRows or
	// DeriveRows built. stale counts the SourceIDs of the lists DeriveRows
	// has replaced since the last NewDatasetRows: the arrays those lists
	// were cut from stay alive while any other list cut from them is.
	refs, stale int

	// providers[t] lists, in ascending order, the sources that provide t.
	providers [][]SourceID
	// outputs[s] lists, in ascending order, the triples provided by s.
	outputs [][]TripleID

	labels []Label

	// row is InsertRow's scratch: the row's providers, sorted and
	// deduplicated, before the triple's own list is cut at its exact size.
	row []SourceID
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		sourceByName: make(map[string]SourceID),
		tripleByKey:  make(map[Triple]TripleID),
	}
}

// NewDatasetCap returns an empty dataset with capacity hints for the number
// of sources and distinct triples it will hold, so bulk loads (file reads,
// store conversions) avoid incremental map and slice growth.
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

// NewDatasetRows returns the dataset that n InsertNamedRow calls build from
// an empty dataset, row(i) giving the i-th row's triple, source names and
// label, when the rows' triples are pairwise distinct — a store keyed by
// triple vouches for that. Sources take IDs in first-appearance order and
// triples in row order; provider lists are sorted and deduplicated, and a
// label-only row keeps a nil list. Each triple is interned with one map
// operation; a repeated triple panics.
//
// refs must be at least the total number of names over all rows. Every
// provider list is cut from one backing array of that length and every
// output list from a second, sized by a count, each list with capacity
// equal to its length, so a later insertSorted never writes into a
// neighbour. The names slices are not retained.
func NewDatasetRows(n, refs int, row func(i int) (Triple, []string, Label)) *Dataset {
	d := NewDatasetCap(0, n)
	d.triples = d.triples[:n]
	d.providers = d.providers[:n]
	d.labels = d.labels[:n]
	backing := make([]SourceID, refs)
	var counts []int
	off := 0
	for i := 0; i < n; i++ {
		t, names, l := row(i)
		d.triples[i], d.labels[i] = t, l
		if d.tripleByKey[t] = TripleID(i); len(d.tripleByKey) != i+1 {
			panic(fmt.Sprintf("triple: NewDatasetRows: triple %v repeats", t))
		}
		if len(names) == 0 {
			continue
		}
		provs := backing[off : off+len(names)]
		for j, name := range names {
			provs[j] = d.AddSource(name)
		}
		slices.Sort(provs)
		provs = slices.Compact(provs)
		d.providers[i] = provs[:len(provs):len(provs)]
		off += len(provs)
		for len(counts) < len(d.sources) {
			counts = append(counts, 0)
		}
		for _, s := range provs {
			counts[s]++
		}
	}
	d.fillOutputs(counts, off)
	return d
}

// maxKeyMaps bounds how many maps a derived dataset's TripleID probes after
// its base: a derivation that would add one more folds instead. With eight,
// a miss costs about 0.2 µs (BenchmarkTripleIDKeyMaps), far below what a
// claim costs the server, while each fold re-hashes every triple.
const maxKeyMaps = 8

// DeriveRows returns the dataset NewDatasetRows(n, refs, row) builds, field
// for field — the same SourceIDs, TripleIDs, providers, outputs, labels and
// TripleID answers — given that d is what NewDatasetRows or DeriveRows built
// from the first d.NumTriples() of those rows, that no row lost a name, and
// that changed lists, ascending, every such row whose names or label
// differ since. It re-derives only the changed rows and the rows appended
// after d's; every other row keeps d's provider list, which it shares.
// Outputs are recounted from the providers, and the triples appended after
// d's get one new key map, so nothing before them is hashed again.
//
// It returns nil when the result cannot keep d's numbering or should not
// share d's memory; the caller then builds it with NewDatasetRows. That
// happens when a changed row names a source before the row where the source
// first appeared (or a new source before the last source's first row); when
// the rows appended since the base reach the base's size, which keeps the
// hashing amortised over the rows appended; when one more key map would
// follow maxKeyMaps; and when the provider lists replaced since the base
// would outnumber, in SourceIDs, the lists d holds, which keeps the arrays
// a derived dataset pins under twice its own lists.
//
// d and the result share key maps and provider lists, so neither may be
// mutated afterwards except through the copying paths (an intern into the
// result copies its keys first); concurrent reads of d are fine.
func (d *Dataset) DeriveRows(n int, changed []TripleID, row func(i int) (Triple, []string, Label)) *Dataset {
	m, base := len(d.triples), len(d.tripleByKey)
	if n < m || n-base >= base || n > m && len(d.appended) == maxKeyMaps {
		return nil
	}
	stale := d.stale
	for _, id := range changed {
		stale += len(d.providers[id])
	}
	if stale > d.refs {
		return nil
	}
	nd := &Dataset{
		sources:      slices.Clip(d.sources),
		sourceByName: maps.Clone(d.sourceByName),
		tripleByKey:  d.tripleByKey,
		sharedKeys:   true,
		stale:        stale,
		triples:      make([]Triple, n),
		providers:    make([][]SourceID, n),
		labels:       make([]Label, n),
	}
	copy(nd.triples, d.triples)
	copy(nd.providers, d.providers)
	copy(nd.labels, d.labels)

	refs := 0
	for _, id := range changed {
		_, names, _ := row(int(id))
		refs += len(names)
	}
	for i := m; i < n; i++ {
		_, names, _ := row(i)
		refs += len(names)
	}
	backing := make([]SourceID, refs)
	// lastFirst is the row where d's newest source first appeared: a source
	// new to d keeps its place in the numbering only after that row.
	lastFirst := TripleID(-1)
	if k := len(d.sources); k > 0 {
		lastFirst = d.outputs[k-1][0]
	}
	off := 0
	provide := func(id TripleID, names []string) bool {
		if len(names) == 0 {
			nd.providers[id] = nil
			return true
		}
		provs := backing[off : off+len(names)]
		for j, name := range names {
			s, known := nd.sourceByName[name]
			switch {
			case !known && id <= lastFirst:
				return false
			case !known:
				s = nd.AddSource(name)
			case int(s) < len(d.sources) && id < d.outputs[s][0]:
				return false
			}
			provs[j] = s
		}
		slices.Sort(provs)
		provs = slices.Compact(provs)
		nd.providers[id] = provs[:len(provs):len(provs)]
		off += len(provs)
		return true
	}
	for _, id := range changed {
		_, names, l := row(int(id))
		nd.labels[id] = l
		if !provide(id, names) {
			return nil
		}
	}
	for i := m; i < n; i++ {
		t, names, l := row(i)
		nd.triples[i], nd.labels[i] = t, l
		provide(TripleID(i), names)
	}
	nd.outputs = make([][]TripleID, len(nd.sources))
	counts := make([]int, len(nd.sources))
	refs = 0
	for _, provs := range nd.providers {
		for _, s := range provs {
			counts[s]++
		}
		refs += len(provs)
	}
	nd.fillOutputs(counts, refs)

	nd.appended = d.appended
	if n > m {
		nd.appended = append(slices.Clip(d.appended), keyMap(nd.triples, m, n))
	}
	return nd
}

// keyMap maps triples[lo:hi] to their IDs; a repeated triple panics.
func keyMap(triples []Triple, lo, hi int) map[Triple]TripleID {
	m := make(map[Triple]TripleID, hi-lo)
	for i := lo; i < hi; i++ {
		if m[triples[i]] = TripleID(i); len(m) != i-lo+1 {
			panic(fmt.Sprintf("triple: triple %v repeats", triples[i]))
		}
	}
	return m
}

// fillOutputs builds every output list from the provider lists, given how
// many lists name each source (counts) and their total length (refs): each
// list is cut from one backing array with capacity equal to its length.
func (d *Dataset) fillOutputs(counts []int, refs int) {
	d.refs = refs
	backing := make([]TripleID, refs)
	off := 0
	for s, c := range counts {
		d.outputs[s] = backing[off : off : off+c]
		off += c
	}
	for i, provs := range d.providers {
		for _, s := range provs {
			d.outputs[s] = append(d.outputs[s], TripleID(i))
		}
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
	if d.sharedKeys {
		d.ownKeys()
	}
	if id, ok := d.TripleID(t); ok {
		return id
	}
	if d.tripleByKey == nil {
		d.tripleByKey = make(map[Triple]TripleID)
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
	d.observeID(s, id)
	return id
}

// observeID is Observe for an interned triple and a registered source.
func (d *Dataset) observeID(s SourceID, id TripleID) {
	var added bool
	if d.providers[id], added = insertSorted(d.providers[id], s); added {
		d.outputs[s], _ = insertSorted(d.outputs[s], id)
	}
}

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
	return d.insertRow(t, l)
}

// InsertNamedRow is InsertRow for a row that names its sources, registering
// each name on first sight, in row order.
func (d *Dataset) InsertNamedRow(t Triple, names []string, l Label) TripleID {
	d.row = d.row[:0]
	for _, name := range names {
		d.row = append(d.row, d.AddSource(name))
	}
	return d.insertRow(t, l)
}

// insertRow inserts the row whose providers are in d.row.
func (d *Dataset) insertRow(t Triple, l Label) TripleID {
	known := len(d.triples)
	id := d.internTriple(t)
	switch {
	case int(id) < known:
		for _, s := range d.row {
			d.observeID(s, id)
		}
	case len(d.row) > 0:
		slices.Sort(d.row)
		d.row = slices.Compact(d.row)
		d.providers[id] = append(make([]SourceID, 0, len(d.row)), d.row...)
		for _, s := range d.row {
			d.outputs[s] = append(d.outputs[s], id)
		}
	}
	if l != Unknown || len(d.row) == 0 {
		d.labels[id] = l
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
//
// A dataset with no key map after its base, which every dataset but a
// derived one is, answers with one map probe.
func (d *Dataset) TripleID(t Triple) (TripleID, bool) {
	if id, ok := d.tripleByKey[t]; ok || d.appended == nil {
		return id, ok
	}
	return d.appendedID(t)
}

// appendedID looks t up in the key maps after the base.
func (d *Dataset) appendedID(t Triple) (TripleID, bool) {
	for _, m := range d.appended {
		if id, ok := m[t]; ok {
			return id, true
		}
	}
	return 0, false
}

// ownKeys replaces shared key maps with one private map of every triple.
func (d *Dataset) ownKeys() {
	d.tripleByKey = keyMap(d.triples, 0, len(d.triples))
	d.appended, d.sharedKeys = nil, false
}

// Label returns the gold label of triple id (Unknown if none).
func (d *Dataset) Label(id TripleID) Label { return d.labels[id] }

// Providers returns the sources that provide triple id, in ascending ID
// order. The returned slice must not be modified.
func (d *Dataset) Providers(id TripleID) []SourceID { return d.providers[id] }

// Provides reports whether source s provides triple id.
func (d *Dataset) Provides(s SourceID, id TripleID) bool {
	_, ok := slices.BinarySearch(d.providers[id], s)
	return ok
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
		if !slices.IsSorted(provs) {
			return fmt.Errorf("triple: providers of %d not sorted", id)
		}
		for _, s := range provs {
			if int(s) < 0 || int(s) >= len(d.sources) {
				return fmt.Errorf("triple: provider %d of triple %d out of range", s, id)
			}
			if _, ok := slices.BinarySearch(d.outputs[s], TripleID(id)); !ok {
				return fmt.Errorf("triple: asymmetric observation (%d, %d)", s, id)
			}
		}
	}
	for s, out := range d.outputs {
		for _, id := range out {
			if _, ok := slices.BinarySearch(d.providers[id], SourceID(s)); !ok {
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
	c.tripleByKey = keyMap(c.triples, 0, len(c.triples))
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

// insertSorted inserts x into the ascending list xs unless it is already
// there, reporting whether it was added.
func insertSorted[T cmp.Ordered](xs []T, x T) ([]T, bool) {
	i, found := slices.BinarySearch(xs, x)
	if found {
		return xs, false
	}
	return slices.Insert(xs, i, x), true
}
