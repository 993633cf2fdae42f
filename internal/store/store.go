// Package store provides the persistent triple store: the write-side record
// a production deployment of the fusion pipeline sits on. It keeps the
// observation data of a triple.Dataset and the fused result per triple,
// answers point lookups by triple, and persists to JSON Lines plus the CFSN
// binary snapshot. It has no secondary index: per-subject and per-source
// listings are served from the per-snapshot internal/index.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"corrfuse/internal/triple"
)

// Entry is a stored triple with its provenance and fusion state. Label is
// "true", "false" or "" (see triple.Label.Gold).
type Entry struct {
	Triple      triple.Triple
	Sources     []string
	Label       string
	Probability float64
	Accepted    bool
}

// Store is an in-memory triple store, keyed by triple, with JSONL
// persistence. It is safe for concurrent use.
//
// Entries are append-only: Put and SetFusion merge into an entry in place or
// append a new one, and nothing removes or reorders entries, so an entry's
// index never changes. Capture's rows rely on it.
//
// From the first capture on, every entry carries a stamp: the data version
// of its last source or label change since (of its creation, for an entry
// Put creates). An entry whose stamp is at most a capture's Version looks to
// the dataset exactly as it did at that capture, and sources are never
// removed, so CaptureFrom re-reads only the entries stamped after its
// previous capture and those appended since.
type Store struct {
	mu sync.RWMutex

	entries []Entry
	byKey   map[triple.Triple]int
	// stamps[i] is entry i's stamp. It is nil until the first capture: a
	// capture with no previous one reads every entry, so a store loaded
	// and replayed at boot stamps nothing before it.
	stamps []uint64

	// version counts data mutations — new entries, new provenance, label
	// changes — but not fusion-result writebacks (SetFusion, or Put merging
	// a probability). A re-fusion therefore reads the same version it
	// started from, letting a refresher skip rebuilds when nothing that
	// feeds the model has changed.
	version uint64
}

// New returns an empty store.
func New() *Store {
	return &Store{byKey: make(map[triple.Triple]int)}
}

// Put inserts or merges an entry. Provenance lists are united; a non-empty
// label, probability or acceptance overwrites the stored one.
func (s *Store) Put(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byKey[e.Triple]; ok {
		cur := &s.entries[i]
		for _, src := range e.Sources {
			if !slices.Contains(cur.Sources, src) {
				// Into a new array: Get and Accepted hand the old one to
				// readers outside the lock.
				cur.Sources = append(slices.Clip(cur.Sources), src)
				sort.Strings(cur.Sources)
				s.version++
				s.stamp(i)
			}
		}
		if e.Label != "" && e.Label != cur.Label {
			cur.Label = e.Label
			s.version++
			s.stamp(i)
		}
		if e.Probability != 0 {
			cur.Probability = e.Probability
		}
		if e.Accepted {
			cur.Accepted = true
		}
		return
	}
	sort.Strings(e.Sources)
	e.Sources = slices.Compact(e.Sources)
	s.byKey[e.Triple] = len(s.entries)
	s.entries = append(s.entries, e)
	s.version++
	s.stamp(len(s.entries) - 1)
}

// stamp stamps entry i, changed or just appended, with the current version
// once stamping has started.
func (s *Store) stamp(i int) {
	switch {
	case s.stamps == nil:
	case i == len(s.stamps):
		s.stamps = append(s.stamps, s.version)
	default:
		s.stamps[i] = s.version
	}
}

// SetFusion records the authoritative fusion result for a triple,
// overwriting whatever is stored — unlike Put's merge, a zero probability or
// a rejection sticks, so a batch re-fusion can demote a previously accepted
// entry. The triple is interned if it is not stored yet. SetFusion never
// advances the data version: fusion results are
// derived state, not input, and an entry interned here carries no provenance
// or label, so Dataset cannot see it — advancing the version would only
// trigger rebuilds over unchanged data.
func (s *Store) SetFusion(t triple.Triple, prob float64, accepted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byKey[t]
	if !ok {
		i = len(s.entries)
		s.entries = append(s.entries, Entry{Triple: t})
		s.stamp(i)
		s.byKey[t] = i
	}
	s.entries[i].Probability = prob
	s.entries[i].Accepted = accepted
}

// Version returns the data version: a counter advanced by every mutation
// that would change the dataset a fusion model is trained on (new triples,
// new provenance, label changes). Fusion writebacks do not advance it.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// TrackShards does nothing, and ShardVersions always returns nil: the
// fusion engine retrains one model on every rebuild, so nothing reads
// per-shard versions. Both remain because the frozen bench/ package calls
// them.
func (s *Store) TrackShards(n int) {}

// ShardVersions returns nil; see TrackShards.
func (s *Store) ShardVersions() []uint64 { return nil }

// Get returns the entry for a triple.
func (s *Store) Get(t triple.Triple) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.byKey[t]
	if !ok {
		return Entry{}, false
	}
	return s.entries[i], true
}

// Len returns the number of stored triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Accepted returns the entries marked accepted by fusion, the cleaned
// output set R of the paper.
func (s *Store) Accepted() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Entry
	for _, e := range s.entries {
		if e.Accepted {
			out = append(out, e)
		}
	}
	return out
}

// FromDataset loads every provided triple of a dataset into a new store.
func FromDataset(d *triple.Dataset) *Store {
	s := New()
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		provs := d.Providers(id)
		if len(provs) == 0 && d.Label(id) == triple.Unknown {
			continue
		}
		e := Entry{Triple: d.Triple(id)}
		for _, p := range provs {
			e.Sources = append(e.Sources, d.SourceName(p))
		}
		e.Label = d.Label(id).Gold()
		s.Put(e)
	}
	return s
}

// Dataset converts the store back into a triple.Dataset: one row per entry
// that has a source or a label, in entry order, so sources and triples take
// their IDs in order of first appearance in the store. An entry with neither
// (interned by SetFusion alone) is no evidence and is left out.
func (s *Store) Dataset() *triple.Dataset {
	return s.CaptureFrom(nil).Data
}

// Captured is one capture of the store.
type Captured struct {
	// Data is the dataset Dataset describes.
	Data *triple.Dataset
	// Rows[id] is the index of the entry triple id was captured from.
	// Entries are append-only, so Rows stays valid for the life of the
	// store and SetFusionRows can write a result back by it.
	Rows []int
	// Version is the data version the capture reflects: every entry is
	// captured as it stood once its stamp was at most Version.
	Version uint64
	// entries is how many entries the capture read.
	entries int
}

// CaptureFrom captures the store under one read lock. Given prev, an
// earlier capture of this store, it derives the dataset from prev's: only
// the entries stamped after prev.Version and those appended since are read,
// and every other row keeps prev's provider list. Without prev, or when the
// derivation cannot keep prev's numbering or should not share prev's
// memory (see triple.Dataset.DeriveRows), it folds: it builds the dataset
// from every entry with triple.NewDatasetRows. An entry prev skipped for
// having no evidence that has since gained some would take an ID before
// later rows, and one prev captured whose only evidence, its label, no
// longer parses would give its ID up, so those cases fold too. Either way
// the result is field for field what a fold would build now.
//
// Nothing is consumed: a capture that is thrown away leaves prev as good a
// base for the next one as it was. The store's first capture also starts
// the stamps, under a brief write lock.
func (s *Store) CaptureFrom(prev *Captured) *Captured {
	s.mu.RLock()
	if s.stamps == nil {
		s.mu.RUnlock()
		s.mu.Lock()
		if s.stamps == nil {
			s.stamps = make([]uint64, len(s.entries)) // 0: this capture folds, reading every entry
		}
		s.mu.Unlock()
		s.mu.RLock()
	}
	defer s.mu.RUnlock()
	c := &Captured{Version: s.version, entries: len(s.entries)}
	if prev != nil {
		if changed, ok := s.changedSince(prev); ok {
			c.Rows = make([]int, len(prev.Rows), len(prev.Rows)+len(s.entries)-prev.entries)
			copy(c.Rows, prev.Rows)
			for i := prev.entries; i < len(s.entries); i++ {
				if s.evidence(i) {
					c.Rows = append(c.Rows, i)
				}
			}
			if c.Data = prev.Data.DeriveRows(len(c.Rows), changed, s.rowFunc(c.Rows)); c.Data != nil {
				return c
			}
		}
	}
	c.Rows = make([]int, 0, len(s.entries))
	refs := 0
	for i := range s.entries {
		if s.evidence(i) {
			c.Rows = append(c.Rows, i)
			refs += len(s.entries[i].Sources)
		}
	}
	c.Data = triple.NewDatasetRows(len(c.Rows), refs, s.rowFunc(c.Rows))
	return c
}

// changedSince returns, ascending, the IDs in prev of the entries stamped
// after prev.Version; ok is false when such an entry has gained its first
// evidence since prev skipped it, or lost its only evidence (a label
// relabeled to one ParseGold reads as Unknown): only a fold can renumber
// the rows after it.
func (s *Store) changedSince(prev *Captured) (changed []triple.TripleID, ok bool) {
	id := 0
	for i, stamp := range s.stamps[:prev.entries] {
		if stamp <= prev.Version {
			continue
		}
		id += sort.SearchInts(prev.Rows[id:], i)
		captured := id < len(prev.Rows) && prev.Rows[id] == i
		if captured != s.evidence(i) {
			return nil, false
		}
		if captured {
			changed = append(changed, triple.TripleID(id))
		}
	}
	return changed, true
}

// evidence reports whether entry i has a source or a label, which is what
// puts it in a captured dataset.
func (s *Store) evidence(i int) bool {
	e := &s.entries[i]
	l, _ := triple.ParseGold(e.Label)
	return len(e.Sources) > 0 || l != triple.Unknown
}

// rowFunc returns the dataset row of triple id, the entry rows[id].
func (s *Store) rowFunc(rows []int) func(id int) (triple.Triple, []string, triple.Label) {
	return func(id int) (triple.Triple, []string, triple.Label) {
		e := &s.entries[rows[id]]
		l, _ := triple.ParseGold(e.Label)
		return e.Triple, e.Sources, l
	}
}

// SetFusionRows writes a batch fusion result back by capture row: for every
// triple ID with provided[id], the entry rows[id] takes probs[id] and
// accepted[id], exactly as SetFusion(d.Triple(id), …) would, under one write
// lock and without a key lookup. rows must come from this store's Capture;
// entries appended since, and IDs not provided, are left untouched. It
// returns how many IDs it wrote and how many of those are accepted.
func (s *Store) SetFusionRows(rows []int, probs []float64, provided, accepted []bool) (triples, nAccepted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, ok := range provided {
		if !ok {
			continue
		}
		e := &s.entries[rows[id]]
		e.Probability, e.Accepted = probs[id], accepted[id]
		triples++
		if accepted[id] {
			nAccepted++
		}
	}
	return triples, nAccepted
}

// CountLabels returns how many entries carry a true and a false gold label:
// what Dataset().CountLabels() reports, without materialising the dataset.
func (s *Store) CountLabels() (numTrue, numFalse int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.entries {
		switch l, _ := triple.ParseGold(s.entries[i].Label); l {
		case triple.True:
			numTrue++
		case triple.False:
			numFalse++
		}
	}
	return
}

// Write streams the store as JSONL, one Record per entry.
func (s *Store) Write(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return WriteRecords(w, len(s.entries), func(i int, rec *Record) {
		e := &s.entries[i]
		*rec = Record{
			Subject: e.Triple.Subject, Predicate: e.Triple.Predicate, Object: e.Triple.Object,
			Sources: e.Sources, Label: e.Label, Probability: e.Probability, Accepted: e.Accepted,
		}
	})
}

// Read loads JSONL records into the store (merging with existing entries).
// Two lines of the stream that give one triple different gold labels are
// refused: a file states each label once. A label in the stream does replace
// the one an existing entry holds, as Put does.
func (s *Store) Read(r io.Reader) error {
	labels := make(map[triple.Triple]string)
	return ReadRecords(r, func(_ int, rec *Record) error {
		t := triple.Triple{Subject: rec.Subject, Predicate: rec.Predicate, Object: rec.Object}
		if rec.Label != "" {
			if prev, ok := labels[t]; ok && prev != rec.Label {
				return fmt.Errorf("conflicting gold labels for %v: %q then %q", t, prev, rec.Label)
			}
			labels[t] = rec.Label
		}
		s.Put(Entry{Triple: t, Sources: rec.Sources, Label: rec.Label, Probability: rec.Probability, Accepted: rec.Accepted})
		return nil
	})
}

// fsyncFile syncs a file (or directory) to stable storage. It is a
// variable so tests can intercept it and assert the sync-before-rename
// ordering that makes Save crash-atomic.
var fsyncFile = func(f *os.File) error { return f.Sync() }

// Save writes the store to a file, atomically AND durably: the data is
// streamed to a temporary file in the same directory, fsynced, renamed over
// the target, and the parent directory is fsynced. The fsync before the
// rename is what makes the atomicity real — without it a power cut can
// leave the rename on disk pointing at a zero-length or partial file; the
// directory fsync afterwards makes the rename itself survive the cut.
func (s *Store) Save(path string) error {
	return writeFileAtomic(path, ".store-*.jsonl", s.Write)
}

// PersistResult reports what one successful or failed Persist did.
type PersistResult struct {
	// SnapshotErr is the binary-snapshot save's failure, nil when the
	// snapshot next to the store is fresh. Alone it does not fail the
	// persist: the JSONL file is the durability source of truth.
	SnapshotErr error
	// SnapshotTime and JSONLTime are the wall times of the two saves.
	SnapshotTime, JSONLTime time.Duration
}

// Persist saves the store next to path in both on-disk forms at once: the
// binary snapshot (the cold-start format LoadPreferred prefers) and the
// JSONL file (the recovery copy LoadPreferred falls back to when the
// snapshot is rejected). A nil error means a restart from these files sees
// at least the state the store held when Persist was called, so a WAL may
// drop the records that state covers. That is why Persist returns only once
// both saves have, why a failed snapshot save deletes the stale snapshot,
// and why failing even that is an error: a stale snapshot surviving past a
// truncation would resurrect a pre-truncation state on the next start and
// lose acknowledged writes.
func (s *Store) Persist(path string) (PersistResult, error) {
	var res PersistResult
	var staleErr error
	snapshotDone := make(chan struct{})
	go func() {
		defer close(snapshotDone)
		start := time.Now()
		if res.SnapshotErr = s.SaveBinary(BinaryPath(path)); res.SnapshotErr != nil {
			staleErr = removeSnapshot(path)
		}
		res.SnapshotTime = time.Since(start)
	}()
	start := time.Now()
	err := s.Save(path)
	jsonlTime := time.Since(start)
	<-snapshotDone
	if err != nil {
		return res, err
	}
	res.JSONLTime = jsonlTime
	return res, staleErr
}

// Install atomically replaces the store file at path with the JSONL stream
// r (a leader's bootstrap snapshot) and removes any binary snapshot next to
// it, so the next LoadPreferred reads exactly this image.
func Install(path string, r io.Reader) error {
	err := writeFileAtomic(path, ".store-*.jsonl", func(w io.Writer) error {
		_, err := io.Copy(w, r)
		return err
	})
	if err != nil {
		return err
	}
	return removeSnapshot(path)
}

// removeSnapshot deletes the binary snapshot next to path; a missing file
// is success.
func removeSnapshot(path string) error {
	if err := os.Remove(BinaryPath(path)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing stale binary snapshot: %w", err)
	}
	return nil
}

// writeFileAtomic streams write into a temp file in path's directory and
// moves it over path with the fsync-before-rename / fsync-dir-after
// discipline Save documents. SaveBinary shares it for the .cfsn snapshot.
func writeFileAtomic(path, pattern string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = fsyncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if runtime.GOOS == "windows" {
		// Windows cannot fsync a directory handle; NTFS journals the
		// rename itself.
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := fsyncFile(d); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}

// Load reads a store from a file.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	s := New()
	if err := s.Read(f); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return s, nil
}
