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
	// One global ranking with a total, data-only tie-break — descending
	// probability, then triple key, then ID — so identical data always
	// produces identical order, independent of input order.
	ids := Rank(probs[:n], provided[:n])
	sortTies(d, probs, ids)

	// Counting pass: every entry's source names are cut from one backing
	// array, and the per-subject and per-source slices from two more, each
	// at its exact size.
	numSources := d.NumSources()
	srcCount := make([]int, numSources)
	subjSlot := make(map[string]int32)
	var subjNames []string
	var subjCount []int
	slots := make([]int32, len(ids))
	names := 0
	for i, id := range ids {
		tr := d.Triple(triple.TripleID(id))
		slot, ok := subjSlot[tr.Subject]
		if !ok {
			slot = int32(len(subjNames))
			subjSlot[tr.Subject] = slot
			subjNames = append(subjNames, tr.Subject)
			subjCount = append(subjCount, 0)
		}
		slots[i] = slot
		subjCount[slot]++
		for _, s := range d.Providers(triple.TripleID(id)) {
			srcCount[s]++
			names++
		}
	}
	subjLists := cutLists(subjCount, len(ids))
	srcLists := cutLists(srcCount, names)

	idx := &Index{
		version:  version,
		probs:    probs,
		accepted: accepted,
		provided: provided,
		entries:  make([]Entry, len(ids)),
	}
	nameBack := make([]string, names)
	// The per-subject and per-source slices append in global rank order,
	// so every slice is born ranked — serving never sorts again.
	for i, id32 := range ids {
		id := triple.TripleID(id32)
		e := &idx.entries[i]
		*e = Entry{Triple: d.Triple(id), Probability: probs[id], Accepted: accepted[id], Label: d.Label(id).Gold()}
		if provs := d.Providers(id); len(provs) > 0 {
			e.Sources = nameBack[:len(provs):len(provs)]
			nameBack = nameBack[len(provs):]
			for j, s := range provs {
				e.Sources[j] = d.SourceName(s)
				srcLists[s] = append(srcLists[s], e)
			}
			slices.Sort(e.Sources)
		}
		subjLists[slots[i]] = append(subjLists[slots[i]], e)
	}
	idx.bySubject = make(map[string][]*Entry, len(subjNames))
	for slot, name := range subjNames {
		idx.bySubject[name] = subjLists[slot]
	}
	idx.bySource = make(map[string][]*Entry, numSources)
	for s, list := range srcLists {
		if len(list) > 0 {
			idx.bySource[d.SourceName(triple.SourceID(s))] = list
		}
	}
	return idx
}

// cutLists cuts one empty slice per count from one backing array of the
// counts' total, each with capacity exactly its count.
func cutLists(counts []int, total int) [][]*Entry {
	back := make([]*Entry, total)
	lists := make([][]*Entry, len(counts))
	for i, c := range counts {
		lists[i], back = back[:0:c], back[c:]
	}
	return lists
}

// sortTies sorts each run of equal probability in ids, which Rank left in
// ascending ID order, by triple key. The run's triples are copied once into
// a scratch slice and a permutation of it is sorted, so no comparison copies
// a Triple; equal keys (distinct triples whose fields join to the same
// string) keep ID order, so the result is a stable sort's.
func sortTies(d *triple.Dataset, probs []float64, ids []int32) {
	// runEnd returns the end of the run that starts at lo.
	runEnd := func(lo int) int {
		key, hi := rankBits(probs[ids[lo]]), lo+1
		for hi < len(ids) && rankBits(probs[ids[hi]]) == key {
			hi++
		}
		return hi
	}
	longest := 0
	for lo, hi := 0, 0; lo < len(ids); lo = hi {
		hi = runEnd(lo)
		longest = max(longest, hi-lo)
	}
	if longest < 2 {
		return
	}
	run := make([]triple.Triple, longest)
	perm := make([]int32, longest)
	for lo, hi := 0, 0; lo < len(ids); lo = hi {
		hi = runEnd(lo)
		if hi-lo < 2 {
			continue
		}
		run, perm := run[:hi-lo], perm[:hi-lo]
		for i, id := range ids[lo:hi] {
			run[i] = d.Triple(triple.TripleID(id))
			perm[i] = int32(i)
		}
		slices.SortFunc(perm, func(a, b int32) int {
			if c := compareKeys(&run[a], &run[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for i, j := range perm {
			perm[i] = ids[lo+int(j)]
		}
		copy(ids[lo:hi], perm)
	}
}

// compareKeys compares a.Key() with b.Key() — the fields joined by 0x1f —
// byte for byte as the strings would compare, without building them.
func compareKeys(a, b *triple.Triple) int {
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
