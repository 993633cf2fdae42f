// Package index provides the immutable read-path index of the fusion
// service: one frozen, jointly-scored view of a snapshot's fused results,
// built once per batch rebuild and shared lock-free by every reader.
//
// The paper frames fusion output as a single result set scored jointly per
// snapshot; this package freezes exactly that shape. A Build call turns the
// scored triples of one rebuild into three read structures:
//
//   - a dense triple-ID → {probability, decision} table (O(1) point reads),
//   - a subject → ranked result slice map (pre-sorted once; serving a
//     subject never re-sorts),
//   - a source → ranked contribution slice map.
//
// An Index is immutable after Build. Readers reach it through the serving
// layer's atomic snapshot pointer, so no lock is ever taken on the read
// path and no reader can observe a half-built index. The version the index
// was built at is carried alongside, letting responses prove that index and
// snapshot belong to the same generation.
package index

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"corrfuse/internal/triple"
)

// Entry is one served result: the triple with its provenance, gold label
// and frozen fusion state. The JSON shape matches what the serving layer
// returns from its listing endpoints.
type Entry struct {
	Triple      triple.Triple `json:"triple"`
	Sources     []string      `json:"sources,omitempty"`
	Label       string        `json:"label,omitempty"`
	Probability float64       `json:"probability"`
	Accepted    bool          `json:"accepted"`
}

// Index is the immutable fused-result index of one snapshot. All methods
// are safe for unsynchronized concurrent use; the slices returned by
// Subject and Source are shared and must not be mutated.
type Index struct {
	version uint64

	// Dense tables by TripleID over the snapshot dataset; provided marks
	// the IDs the fused result set covers (triples with at least one
	// provider). The slices are shared with the frozen model (see
	// Model.FrozenScores), not copied — both sides are immutable.
	probs    []float64
	accepted []bool
	provided []bool

	// entries holds every fused result in global rank order (descending
	// probability, ties broken by triple key so identical data always
	// ranks identically). The per-subject and per-source slices point into
	// it, inheriting the order.
	entries   []Entry
	bySubject map[string][]*Entry
	bySource  map[string][]*Entry
}

// Build freezes the fused results of one rebuild into an Index. d is the
// snapshot dataset the IDs refer to; probs, provided and accepted are the
// model's frozen score tables (Model.FrozenScores), dense by TripleID —
// they are adopted by reference, not copied, so the index adds only the
// ranked listing structures on top of the tables the model already holds.
// version is the store data version the snapshot was captured at.
// Provenance, labels and the tables must not be mutated afterwards (the
// serving layer's datasets and frozen models never are).
func Build(d *triple.Dataset, probs []float64, provided, accepted []bool, version uint64) *Index {
	n := d.NumTriples()
	if n > len(provided) {
		n = len(provided) // defensive: never read past the tables
	}
	// One global ranking with a total, data-only tie-break: identical data
	// always produces identical order, independent of input order or of
	// sort-internal permutations. The sort moves 16-byte keys, not
	// entries, and compares triple keys without building them; equal keys
	// (distinct triples whose fields join to the same string) keep ID
	// order, so the result is a stable sort's.
	type rankKey struct {
		p  float64
		id int32
	}
	keys := make([]rankKey, 0, n)
	for i := 0; i < n; i++ {
		if provided[i] {
			keys = append(keys, rankKey{probs[i], int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		switch {
		case a.p > b.p:
			return -1
		case a.p < b.p:
			return 1
		}
		if c := compareKeys(d.Triple(triple.TripleID(a.id)), d.Triple(triple.TripleID(b.id))); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	idx := &Index{
		version:   version,
		probs:     probs,
		accepted:  accepted,
		provided:  provided,
		entries:   make([]Entry, len(keys)),
		bySubject: make(map[string][]*Entry),
		bySource:  make(map[string][]*Entry),
	}
	for i, k := range keys {
		id := triple.TripleID(k.id)
		e := &idx.entries[i]
		*e = Entry{Triple: d.Triple(id), Probability: k.p, Accepted: accepted[id], Label: d.Label(id).Gold()}
		if provs := d.Providers(id); len(provs) > 0 {
			e.Sources = make([]string, len(provs))
			for j, s := range provs {
				e.Sources[j] = d.SourceName(s)
			}
			sort.Strings(e.Sources)
		}
	}
	// The per-subject and per-source slices append in global rank order,
	// so every slice is born ranked — serving never sorts again.
	for i := range idx.entries {
		e := &idx.entries[i]
		idx.bySubject[e.Triple.Subject] = append(idx.bySubject[e.Triple.Subject], e)
		for _, src := range e.Sources {
			idx.bySource[src] = append(idx.bySource[src], e)
		}
	}
	return idx
}

// compareKeys compares a.Key() with b.Key() — the fields joined by 0x1f —
// byte for byte as the strings would compare, without building them.
func compareKeys(a, b triple.Triple) int {
	as := [...]string{a.Subject, sep, a.Predicate, sep, a.Object}
	bs := [...]string{b.Subject, sep, b.Predicate, sep, b.Object}
	i, j := 0, 0
	x, y := as[0], bs[0]
	for {
		for x == "" && i < len(as)-1 {
			i++
			x = as[i]
		}
		for y == "" && j < len(bs)-1 {
			j++
			y = bs[j]
		}
		if x == "" || y == "" {
			return cmp.Compare(len(x), len(y))
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// sep is the separator triple.Triple.Key joins the fields with.
const sep = "\x1f"

// Version returns the store data version the index was built at. A response
// assembled from one snapshot must carry an index version equal to the
// snapshot's own version; a mismatch would mean a reader mixed generations.
func (idx *Index) Version() uint64 { return idx.version }

// Len returns the number of fused results in the index.
func (idx *Index) Len() int { return len(idx.entries) }

// Subjects returns the number of distinct subjects with fused results.
func (idx *Index) Subjects() int { return len(idx.bySubject) }

// Lookup returns the frozen probability and acceptance decision for a
// snapshot triple ID in O(1). ok is false for IDs outside the fused result
// set (unknown, or stored without any provider).
//
//corrfuse:hotpath
func (idx *Index) Lookup(id triple.TripleID) (p float64, accepted, ok bool) {
	if int(id) >= len(idx.provided) || !idx.provided[id] {
		return 0, false, false
	}
	return idx.probs[id], idx.accepted[id], true
}

// Subject returns the fused results about a subject, pre-ranked by
// descending probability. The slice is shared: callers must not mutate it.
func (idx *Index) Subject(subject string) []*Entry {
	return idx.bySubject[subject]
}

// Source returns the fused results a source contributed to, pre-ranked by
// descending probability. The slice is shared: callers must not mutate it.
func (idx *Index) Source(name string) []*Entry {
	return idx.bySource[name]
}

// Ranked returns every fused result in global rank order. The slice is
// shared: callers must not mutate it.
func (idx *Index) Ranked() []Entry { return idx.entries }
