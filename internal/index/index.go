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
	"math"
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
	entries []Entry
	// bySubject maps a subject to its slot in subjLists.
	bySubject map[string]int32
	subjLists [][]*Entry
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
	c := newCatalog(d, provided[:n])
	// One global ranking with a total, data-only tie-break — descending
	// probability, then triple key, then ID — so identical data always
	// produces identical order, independent of input order.
	ids := Rank(probs[:n], provided[:n])
	c.sortTies(d, probs, ids)

	// The per-subject and per-source slices are cut from two backing
	// arrays, each at its exact size, and append in global rank order, so
	// every slice is born ranked — serving never sorts again.
	idx := &Index{
		version:   version,
		probs:     probs,
		accepted:  accepted,
		provided:  provided,
		entries:   make([]Entry, len(ids)),
		bySubject: c.subjSlot,
		subjLists: cutLists(c.subjCount, len(ids)),
	}
	srcLists := cutLists(c.srcCount, c.refs)
	for i, id32 := range ids {
		id := triple.TripleID(id32)
		at := c.at[id]
		e := &idx.entries[i]
		*e = Entry{Triple: d.Triple(id), Sources: c.sets[at.set], Probability: probs[id], Accepted: accepted[id], Label: d.Label(id).Gold()}
		for _, s := range d.Providers(id) {
			srcLists[s] = append(srcLists[s], e)
		}
		idx.subjLists[at.subj] = append(idx.subjLists[at.subj], e)
	}
	idx.bySource = make(map[string][]*Entry, len(srcLists))
	for s, list := range srcLists {
		if len(list) > 0 {
			idx.bySource[d.SourceName(triple.SourceID(s))] = list
		}
	}
	return idx
}

// catalog is what Build learns in one pass over the provided triple IDs:
// each triple's subject slot and provider-set slot, the provided triples per
// subject and per source, and each distinct provider set's source names,
// sorted once and shared by every entry with that set. The subject map
// becomes the index's own.
type catalog struct {
	at        []slots // by TripleID
	subjSlot  map[string]int32
	subjects  []string // by subject slot
	subjCount []int
	srcCount  []int // by SourceID
	refs      int   // provider references over all provided triples
	sets      [][]string
}

// setHashPrime is the FNV-1a prime newCatalog hashes provider sets with; a
// variable only so that a test can make every set collide.
var setHashPrime uint64 = 1099511628211

// slots locates one triple in the catalog: its subject and its provider
// set (0 is the empty set, whose names are nil).
type slots struct{ subj, set int32 }

func newCatalog(d *triple.Dataset, provided []bool) *catalog {
	c := &catalog{
		at:       make([]slots, len(provided)),
		subjSlot: make(map[string]int32),
		srcCount: make([]int, d.NumSources()),
	}
	// Provider sets are keyed by a hash of their IDs; a collision moves on
	// to the next key until the set or a free key is found.
	setSlot := make(map[uint64]int32)
	setProvs := [][]triple.SourceID{nil} // a representative provider list per set slot
	names := 0
	prevSubj, prevSlot := "", int32(-1)
	for i, ok := range provided {
		if !ok {
			continue
		}
		id := triple.TripleID(i)
		// Triples of one subject usually sit side by side in ID order, so
		// most of them skip the map.
		if sub := d.Triple(id).Subject; prevSlot < 0 || sub != prevSubj {
			slot, seen := c.subjSlot[sub]
			if !seen {
				slot = int32(len(c.subjects))
				c.subjSlot[sub] = slot
				c.subjects = append(c.subjects, sub)
				c.subjCount = append(c.subjCount, 0)
			}
			prevSubj, prevSlot = sub, slot
		}
		c.at[i].subj = prevSlot
		c.subjCount[prevSlot]++
		provs := d.Providers(id)
		if len(provs) == 0 {
			continue
		}
		key := uint64(14695981039346656037) // FNV-1a over the IDs
		for _, s := range provs {
			key = (key ^ uint64(s)) * setHashPrime
			c.srcCount[s]++
		}
		c.refs += len(provs)
		for {
			set, seen := setSlot[key]
			if !seen {
				set = int32(len(setProvs))
				setSlot[key] = set
				setProvs = append(setProvs, provs)
				names += len(provs)
			} else if !slices.Equal(setProvs[set], provs) {
				key++
				continue
			}
			c.at[i].set = set
			break
		}
	}
	back := make([]string, names)
	c.sets = make([][]string, len(setProvs))
	for i, provs := range setProvs[1:] {
		list := back[:len(provs):len(provs)]
		back = back[len(provs):]
		for j, s := range provs {
			list[j] = d.SourceName(s)
		}
		slices.Sort(list)
		c.sets[i+1] = list
	}
	return c
}

// rankSubjects returns each subject slot's rank in the order of
// subject+sep, which decides the joined-key order of two triples with
// different subjects, or nil when ranking costs more comparisons than work,
// the comparisons a plain key sort of the tie runs makes, or when some
// subject holds sep (then subject+sep decides nothing).
func (c *catalog) rankSubjects(work float64) []uint32 {
	s := float64(len(c.subjects))
	if s*math.Log2(s) >= work || slices.ContainsFunc(c.subjects, func(sub string) bool { return strings.Contains(sub, sep) }) {
		return nil
	}
	order := make([]int32, len(c.subjects))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := c.subjects[a], c.subjects[b]
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 || len(x) == len(y) {
			return c
		}
		if len(x) < len(y) {
			return cmp.Compare(sep[0], y[n])
		}
		return cmp.Compare(x[n], sep[0])
	})
	rank := make([]uint32, len(order))
	for r, slot := range order {
		rank[slot] = uint32(r)
	}
	return rank
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
// ascending ID order, by triple key, keeping ID order among equal keys, so
// the result is a stable sort's. With a subject rank, a run is sorted by
// rank and ID as integers, and only triples of one subject are then compared
// by whole key; without one, the whole run is.
func (c *catalog) sortTies(d *triple.Dataset, probs []float64, ids []int32) {
	// runEnd returns the end of the run that starts at lo.
	runEnd := func(lo int) int {
		key, hi := rankBits(probs[ids[lo]]), lo+1
		for hi < len(ids) && rankBits(probs[ids[hi]]) == key {
			hi++
		}
		return hi
	}
	longest, work := 0, 0.0
	for lo, hi := 0, 0; lo < len(ids); lo = hi {
		hi = runEnd(lo)
		longest = max(longest, hi-lo)
		work += float64(hi-lo) * math.Log2(float64(hi-lo))
	}
	if longest < 2 {
		return
	}
	rank := c.rankSubjects(work)
	keys := make([]uint64, longest)
	run, perm := make([]triple.Triple, longest), make([]int32, longest)
	for lo, hi := 0, 0; lo < len(ids); lo = hi {
		hi = runEnd(lo)
		if rank == nil {
			sortByKey(d, ids[lo:hi], run, perm)
			continue
		}
		keys := keys[:hi-lo]
		for i, id := range ids[lo:hi] {
			keys[i] = uint64(rank[c.at[id].subj])<<32 | uint64(id)
		}
		slices.Sort(keys)
		for i, k := range keys {
			ids[lo+i] = int32(uint32(k))
		}
		for a, b := lo, lo; a < hi; a = b {
			for b = a + 1; b < hi && keys[b-lo]>>32 == keys[a-lo]>>32; b++ {
			}
			sortByKey(d, ids[a:b], run, perm)
		}
	}
}

// sortByKey sorts ids, which are in ascending order, by triple key, equal
// keys (distinct triples whose fields join to the same string) keeping ID
// order. The triples are copied once into run and a permutation of them is
// sorted in perm (both scratch of at least len(ids)), so no comparison
// copies a Triple.
func sortByKey(d *triple.Dataset, ids []int32, run []triple.Triple, perm []int32) {
	if len(ids) < 2 {
		return
	}
	run, perm = run[:len(ids)], perm[:len(ids)]
	for i, id := range ids {
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
		perm[i] = ids[j]
	}
	copy(ids, perm)
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
	slot, ok := idx.bySubject[subject]
	if !ok {
		return nil
	}
	return idx.subjLists[slot]
}

// Source returns the fused results a source contributed to, pre-ranked by
// descending probability. The slice is shared: callers must not mutate it.
func (idx *Index) Source(name string) []*Entry {
	return idx.bySource[name]
}
