// Package index provides the immutable read-path index of the fusion
// service: one frozen, jointly-scored view of a snapshot's fused results,
// built once per batch rebuild and shared lock-free by every reader.
//
// The paper frames fusion output as a single result set scored jointly per
// snapshot; this package freezes exactly that shape. A Build call turns the
// scored triples of one rebuild into three read structures:
//
//   - a dense triple-ID → {probability, decision} table (O(1) point reads),
//   - the triple IDs of each subject, grouped at build time,
//   - the triple IDs of each source, grouped likewise.
//
// Build ranks nothing. A subject or source listing is ranked and its entries
// are built on its first read, and published for every later reader of the
// same index, so a rebuild pays only for the grouping and a listing is paid
// for once per snapshot, by the first request that reads it.
//
// An Index is immutable after Build, but for those once-published listings.
// Readers reach it through the serving layer's atomic snapshot pointer, so
// no lock is ever taken on the read path and no reader can observe a
// half-built index. The version the index was built at is carried
// alongside, letting responses prove that index and snapshot belong to the
// same generation.
package index

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"

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
	d       *triple.Dataset

	// Dense tables by TripleID over the snapshot dataset; provided marks
	// the IDs the fused result set covers (triples with at least one
	// provider). The slices are shared with the frozen model (see
	// Model.FrozenScores), not copied — both sides are immutable.
	probs    []float64
	accepted []bool
	provided []bool

	// set is each triple's provider-set slot and sets each slot's sorted
	// source names, shared by every entry with that set.
	set  []int32
	sets [][]string

	// bySubject maps a subject to its slot. Subject slot s's provided
	// triple IDs are subjIDs[subjAt[s]:subjAt[s+1]], and source s's are
	// srcIDs[srcAt[s]:srcAt[s+1]], each group in ascending ID order.
	bySubject       map[string]int32
	subjIDs, subjAt []int32
	srcIDs, srcAt   []int32
	// A listing's ranked entries, published by its first reader.
	subjLists, srcLists []atomic.Pointer[[]*Entry]
	// made counts the entries materialised, for the tests.
	made atomic.Int64
}

// Build freezes the fused results of one rebuild into an Index. d is the
// snapshot dataset the IDs refer to; probs, provided and accepted are the
// model's frozen score tables (Model.FrozenScores), dense by TripleID —
// they are adopted by reference, not copied, so the index adds only the
// grouped triple IDs on top of the tables the model already holds.
// version is the store data version the snapshot was captured at.
// The dataset and the tables must not be mutated afterwards (the serving
// layer's datasets and frozen models never are).
func Build(d *triple.Dataset, probs []float64, provided, accepted []bool, version uint64) *Index {
	n := d.NumTriples()
	if n > len(provided) {
		n = len(provided) // defensive: never read past the tables
	}
	idx := &Index{version: version, d: d, probs: probs, accepted: accepted, provided: provided}
	subj := idx.catalog(provided[:n])
	// The groups are cut from two arrays by the counts the catalog took
	// (held in subjAt and srcAt), filled from the highest ID down so each
	// group ends in ascending ID order and each count ends as its group's
	// start.
	idx.subjIDs = make([]int32, idx.subjAt[len(idx.subjAt)-1])
	idx.srcIDs = make([]int32, idx.srcAt[len(idx.srcAt)-1])
	for i := n - 1; i >= 0; i-- {
		if !provided[i] {
			continue
		}
		s := subj[i]
		idx.subjAt[s]--
		idx.subjIDs[idx.subjAt[s]] = int32(i)
		for _, src := range d.Providers(triple.TripleID(i)) {
			idx.srcAt[src]--
			idx.srcIDs[idx.srcAt[src]] = int32(i)
		}
	}
	idx.subjLists = make([]atomic.Pointer[[]*Entry], len(idx.bySubject))
	idx.srcLists = make([]atomic.Pointer[[]*Entry], d.NumSources())
	return idx
}

// setHashPrime is the FNV-1a prime catalog hashes provider sets with; a
// variable only so that a test can make every set collide.
var setHashPrime uint64 = 1099511628211

// catalog is one pass over the provided triple IDs. It assigns each
// triple its subject slot, which it returns by TripleID, and its provider
// set, whose source names it builds once per distinct set. It leaves in
// subjAt and srcAt the end of each subject's and source's group, the
// running sums of their counts, with the total last.
func (idx *Index) catalog(provided []bool) []int32 {
	d := idx.d
	subj := make([]int32, len(provided))
	idx.set = make([]int32, len(provided))
	idx.bySubject = make(map[string]int32)
	idx.srcAt = make([]int32, d.NumSources()+1)
	var subjCount []int32
	// Provider sets are keyed by a hash of their IDs; a collision moves on
	// to the next key until the set or a free key is found.
	setSlot := make(map[uint64]int32)
	setProvs := [][]triple.SourceID{nil} // a representative provider list per set slot; 0 is the empty set
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
			slot, seen := idx.bySubject[sub]
			if !seen {
				slot = int32(len(subjCount))
				idx.bySubject[sub] = slot
				subjCount = append(subjCount, 0)
			}
			prevSubj, prevSlot = sub, slot
		}
		subj[i] = prevSlot
		subjCount[prevSlot]++
		provs := d.Providers(id)
		if len(provs) == 0 {
			continue
		}
		key := uint64(14695981039346656037) // FNV-1a over the IDs
		for _, s := range provs {
			key = (key ^ uint64(s)) * setHashPrime
			idx.srcAt[s]++
		}
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
			idx.set[i] = set
			break
		}
	}
	idx.subjAt = append(subjCount, 0)
	for _, at := range [][]int32{idx.subjAt, idx.srcAt} {
		sum := int32(0)
		for i, c := range at[:len(at)-1] {
			sum += c
			at[i] = sum
		}
		at[len(at)-1] = sum
	}
	back := make([]string, names)
	idx.sets = make([][]string, len(setProvs))
	for i, provs := range setProvs[1:] {
		list := back[:len(provs):len(provs)]
		back = back[len(provs):]
		for j, s := range provs {
			list[j] = d.SourceName(s)
		}
		slices.Sort(list)
		idx.sets[i+1] = list
	}
	return subj
}

// listing returns the ranked entries of one group, ranking the group and
// materialising its entries in one block on the first call and publishing
// them through p. Readers racing on a first call may each rank the group,
// but all of them return the one slice that won the publication.
func (idx *Index) listing(p *atomic.Pointer[[]*Entry], group []int32) []*Entry {
	if l := p.Load(); l != nil {
		return *l
	}
	ids := slices.Clone(group)
	// Descending probability, then triple key, then ID: a total order on
	// data alone, so identical data always lists identically.
	slices.SortFunc(ids, func(a, b int32) int {
		if c := cmp.Compare(rankBits(idx.probs[a]), rankBits(idx.probs[b])); c != 0 {
			return c
		}
		ta, tb := idx.d.Triple(triple.TripleID(a)), idx.d.Triple(triple.TripleID(b))
		if c := compareKeys(&ta, &tb); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	entries := make([]Entry, len(ids))
	l := make([]*Entry, len(ids))
	for i, id32 := range ids {
		id := triple.TripleID(id32)
		entries[i] = Entry{Triple: idx.d.Triple(id), Sources: idx.sets[idx.set[id]], Probability: idx.probs[id], Accepted: idx.accepted[id], Label: idx.d.Label(id).Gold()}
		l[i] = &entries[i]
	}
	idx.made.Add(int64(len(l)))
	if !p.CompareAndSwap(nil, &l) {
		return *p.Load()
	}
	return l
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
func (idx *Index) Len() int { return len(idx.subjIDs) }

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

// Subject returns the fused results about a subject, ranked by descending
// probability on the index's first read of the subject. The slice is
// shared: callers must not mutate it.
func (idx *Index) Subject(subject string) []*Entry {
	s, ok := idx.bySubject[subject]
	if !ok {
		return nil
	}
	return idx.listing(&idx.subjLists[s], idx.subjIDs[idx.subjAt[s]:idx.subjAt[s+1]])
}

// Source returns the fused results a source contributed to, ranked like
// Subject's. The slice is shared: callers must not mutate it.
func (idx *Index) Source(name string) []*Entry {
	s, ok := idx.d.SourceID(name)
	if !ok || idx.srcAt[s] == idx.srcAt[s+1] {
		return nil
	}
	return idx.listing(&idx.srcLists[s], idx.srcIDs[idx.srcAt[s]:idx.srcAt[s+1]])
}
