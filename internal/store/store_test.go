package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"corrfuse/internal/shard"
	"corrfuse/internal/triple"
)

func mk(s, p, o string) triple.Triple {
	return triple.Triple{Subject: s, Predicate: p, Object: o}
}

func TestPutGetMerge(t *testing.T) {
	s := New()
	tr := mk("Obama", "profession", "president")
	s.Put(Entry{Triple: tr, Sources: []string{"S1"}})
	s.Put(Entry{Triple: tr, Sources: []string{"S2", "S1"}, Label: "true"})
	e, ok := s.Get(tr)
	if !ok {
		t.Fatal("entry missing")
	}
	if len(e.Sources) != 2 || e.Sources[0] != "S1" || e.Sources[1] != "S2" {
		t.Errorf("sources = %v", e.Sources)
	}
	if e.Label != "true" {
		t.Errorf("label = %q", e.Label)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if _, ok := s.Get(mk("x", "y", "z")); ok {
		t.Error("missing triple reported present")
	}
}

func TestAccepted(t *testing.T) {
	s := New()
	s.Put(Entry{Triple: mk("a", "p", "1"), Accepted: true, Probability: 0.9})
	s.Put(Entry{Triple: mk("a", "p", "2"), Probability: 0.2})
	acc := s.Accepted()
	if len(acc) != 1 || acc[0].Triple.Object != "1" {
		t.Errorf("Accepted = %v", acc)
	}
}

// TestCountLabelsMatchesDataset: the label count fused derives -alpha 0 from
// is the one the materialised dataset reports, including a label outside
// the schema that only a direct Put can store (counted by neither).
func TestCountLabelsMatchesDataset(t *testing.T) {
	s := snapStore()
	s.Put(Entry{Triple: mk("odd", "p", "v"), Sources: []string{"S"}, Label: "maybe"})
	nt, nf := s.CountLabels()
	wt, wf := s.Dataset().CountLabels()
	if nt != wt || nf != wf || nt == 0 || nf == 0 {
		t.Fatalf("CountLabels = (%d,%d), Dataset().CountLabels() = (%d,%d)", nt, nf, wt, wf)
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	s := New()
	if err := s.Read(bytes.NewBufferString("{bad json\n")); err == nil {
		t.Error("garbage should fail")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr := mk("e", "p", string(rune('a'+i%26)))
				s.Put(Entry{Triple: tr, Sources: []string{"S"}})
				s.Get(tr)
				s.Get(mk("e", "p", "a"))
				s.Len()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 26 {
		t.Errorf("Len = %d, want 26", s.Len())
	}
}

// TestSetFusion: unlike Put's merge, SetFusion is authoritative — a batch
// re-fusion overwrites the stored probability and acceptance even when the
// new values are zero/false, so demotions stick.
func TestSetFusion(t *testing.T) {
	s := New()
	tr := mk("Obama", "born", "Kenya")
	s.Put(Entry{Triple: tr, Sources: []string{"S1"}, Probability: 0.99, Accepted: true})

	// Put cannot demote: zero probability and false acceptance are
	// ignored by the merge.
	s.Put(Entry{Triple: tr, Probability: 0, Accepted: false})
	if e, _ := s.Get(tr); e.Probability != 0.99 || !e.Accepted {
		t.Fatalf("Put merge changed fusion state: %+v", e)
	}

	s.SetFusion(tr, 0.07, false)
	e, _ := s.Get(tr)
	if e.Probability != 0.07 || e.Accepted {
		t.Fatalf("SetFusion did not demote: %+v", e)
	}
	if len(e.Sources) != 1 || e.Label != "" {
		t.Fatalf("SetFusion clobbered provenance: %+v", e)
	}
	s.SetFusion(tr, 0, false)
	if e, _ := s.Get(tr); e.Probability != 0 {
		t.Fatalf("SetFusion(0) did not stick: %+v", e)
	}

	// SetFusion interns unknown triples.
	fresh := mk("new", "p", "v")
	s.SetFusion(fresh, 0.8, true)
	if e, ok := s.Get(fresh); !ok || !e.Accepted {
		t.Fatalf("SetFusion did not intern: %+v", e)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after interning one new triple, want 2", s.Len())
	}
}

// TestVersion: the data version advances on mutations that feed the fusion
// model and stays put for no-ops and fusion writebacks.
func TestVersion(t *testing.T) {
	s := New()
	if s.Version() != 0 {
		t.Fatalf("fresh store version = %d", s.Version())
	}
	tr := mk("a", "p", "v")
	s.Put(Entry{Triple: tr, Sources: []string{"S1"}})
	v1 := s.Version()
	if v1 == 0 {
		t.Fatal("insert did not advance the version")
	}
	s.Put(Entry{Triple: tr, Sources: []string{"S1"}}) // duplicate: no-op
	if s.Version() != v1 {
		t.Fatal("duplicate Put advanced the version")
	}
	s.Put(Entry{Triple: tr, Sources: []string{"S2"}}) // new provenance
	v2 := s.Version()
	if v2 == v1 {
		t.Fatal("new provenance did not advance the version")
	}
	s.Put(Entry{Triple: tr, Label: "true"}) // label change
	v3 := s.Version()
	if v3 == v2 {
		t.Fatal("label change did not advance the version")
	}
	s.SetFusion(tr, 0.9, true) // fusion writeback: derived state
	if s.Version() != v3 {
		t.Fatal("SetFusion advanced the data version")
	}
	s.Put(Entry{Triple: tr, Probability: 0.5, Accepted: true}) // merge of derived state
	if s.Version() != v3 {
		t.Fatal("probability merge advanced the data version")
	}
}

func TestShardVersions(t *testing.T) {
	const n = 4
	s := New()
	if s.ShardVersions() != nil {
		t.Fatal("tracking reported before TrackShards")
	}
	s.TrackShards(n)
	base := s.ShardVersions()
	if len(base) != n {
		t.Fatalf("ShardVersions = %d counters, want %d", len(base), n)
	}

	tr := mk("Obama", "profession", "president")
	home := shard.Of(tr.Subject, n)
	s.Put(Entry{Triple: tr, Sources: []string{"S1"}})
	after := s.ShardVersions()
	for i := 0; i < n; i++ {
		if i == home && after[i] == base[i] {
			t.Errorf("Put did not advance shard %d (the subject's shard)", i)
		}
		if i != home && after[i] != base[i] {
			t.Errorf("Put advanced shard %d, subject routes to %d", i, home)
		}
	}

	// No-op merge: same provenance again moves nothing.
	s.Put(Entry{Triple: tr, Sources: []string{"S1"}})
	if got := s.ShardVersions(); got[home] != after[home] {
		t.Error("duplicate provenance advanced the shard version")
	}
	// New provenance and label changes advance the home shard only.
	s.Put(Entry{Triple: tr, Sources: []string{"S2"}, Label: "true"})
	bumped := s.ShardVersions()
	if bumped[home] == after[home] {
		t.Error("new provenance + label did not advance the home shard")
	}
	// Fusion writebacks are derived state: no shard moves, even when the
	// triple is interned fresh.
	s.SetFusion(tr, 0.9, true)
	s.SetFusion(mk("new", "p", "v"), 0.4, false)
	if got := s.ShardVersions(); !equalVersions(got, bumped) {
		t.Errorf("SetFusion moved shard versions: %v -> %v", bumped, got)
	}
	// The per-shard counters decompose the global version: their sum
	// advances exactly when Version does.
	var sum uint64
	for _, v := range s.ShardVersions() {
		sum += v
	}
	if sum != s.Version() {
		t.Errorf("shard versions sum to %d, global version is %d", sum, s.Version())
	}

	// Resizing resets: captures across a TrackShards call compare changed.
	s.TrackShards(8)
	if got := s.ShardVersions(); len(got) != 8 {
		t.Fatalf("resize kept %d counters", len(got))
	}
}

func equalVersions(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSaveFsyncBeforeRename: the regression test for crash-atomic saves.
// Save must fsync the temp file BEFORE renaming it over the target (else a
// power cut can publish a truncated store) and fsync the parent directory
// after the rename (else the rename itself can vanish). The injectable
// fsync hook records the ordering.
func TestSaveFsyncBeforeRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")

	// A pre-existing target with known content lets the hook detect
	// whether the rename already happened when the temp file is synced.
	old := New()
	old.Put(Entry{Triple: mk("old", "p", "v"), Sources: []string{"S1"}})
	if err := old.Save(path); err != nil {
		t.Fatal(err)
	}

	s := New()
	s.Put(Entry{Triple: mk("new", "p", "v"), Sources: []string{"S1"}})

	var calls []string
	orig := fsyncFile
	fsyncFile = func(f *os.File) error {
		calls = append(calls, f.Name())
		if strings.HasPrefix(filepath.Base(f.Name()), ".store-") {
			// The temp-file sync must precede the rename: the target
			// still holds the old content at this moment.
			reloaded, err := Load(path)
			if err != nil {
				t.Errorf("target unreadable during temp-file sync: %v", err)
			} else if _, ok := reloaded.Get(mk("old", "p", "v")); !ok {
				t.Error("temp file synced after the rename already replaced the target")
			}
		}
		return orig(f)
	}
	defer func() { fsyncFile = orig }()

	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// old.Save above ran with the real hook; only s.Save is recorded.
	if len(calls) != 2 {
		t.Fatalf("fsync calls = %v, want [tempfile, dir]", calls)
	}
	if !strings.HasPrefix(filepath.Base(calls[0]), ".store-") {
		t.Errorf("first fsync hit %q, want the temp file", calls[0])
	}
	if calls[1] != dir {
		t.Errorf("second fsync hit %q, want the directory %q", calls[1], dir)
	}

	reloaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reloaded.Get(mk("new", "p", "v")); !ok {
		t.Fatal("saved store does not hold the new content")
	}
}

// TestSaveFsyncFailureAborts: a failed temp-file fsync must abort the save
// and leave the existing target untouched.
func TestSaveFsyncFailureAborts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	old := New()
	old.Put(Entry{Triple: mk("old", "p", "v"), Sources: []string{"S1"}})
	if err := old.Save(path); err != nil {
		t.Fatal(err)
	}

	orig := fsyncFile
	fsyncFile = func(f *os.File) error { return errors.New("injected fsync failure") }
	defer func() { fsyncFile = orig }()

	s := New()
	s.Put(Entry{Triple: mk("new", "p", "v"), Sources: []string{"S1"}})
	if err := s.Save(path); err == nil {
		t.Fatal("Save succeeded despite fsync failure")
	}
	fsyncFile = orig
	reloaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reloaded.Get(mk("old", "p", "v")); !ok {
		t.Fatal("failed save clobbered the existing store")
	}
	if _, ok := reloaded.Get(mk("new", "p", "v")); ok {
		t.Fatal("failed save published new content")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, ".store-*")); len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// TestPersistOrderAndTruncateSafety pins the one persist path: snapshot
// first, JSONL second, and success (= the WAL may be truncated) only while
// no stale snapshot can shadow the JSONL on the next LoadPreferred.
func TestPersistOrderAndTruncateSafety(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	old := New()
	old.Put(Entry{Triple: mk("old", "p", "v"), Sources: []string{"S1"}})
	if res, err := old.Persist(path); err != nil || res.SnapshotErr != nil {
		t.Fatalf("healthy persist: %+v, %v", res, err)
	}
	if _, info, err := LoadPreferred(path); err != nil || info.Format != FormatBinary || info.Duration <= 0 {
		t.Fatalf("restart after a healthy persist: %+v, %v", info, err)
	}

	s := New()
	s.Put(Entry{Triple: mk("new", "p", "v"), Sources: []string{"S1"}})
	var synced []string
	orig := fsyncFile
	defer func() { fsyncFile = orig }()
	fsyncFile = func(f *os.File) error {
		synced = append(synced, filepath.Ext(f.Name()))
		if filepath.Ext(f.Name()) == ".cfsn" {
			return errors.New("injected snapshot fsync failure")
		}
		return orig(f)
	}
	res, err := s.Persist(path)
	if err != nil {
		t.Fatalf("a snapshot failure with the stale file removed must not fail the persist: %v", err)
	}
	if res.SnapshotErr == nil {
		t.Fatal("snapshot failure not reported")
	}
	if len(synced) < 2 || synced[0] != ".cfsn" || synced[1] != ".jsonl" {
		t.Fatalf("save order = %v, want the snapshot before the JSONL file", synced)
	}
	// The stale snapshot is gone, so the restart reads the new JSONL.
	got, info, err := LoadPreferred(path)
	if err != nil || info.Format != FormatJSONL || info.FallbackReason != "" {
		t.Fatalf("restart after a failed snapshot: %+v, %v", info, err)
	}
	if _, ok := got.Get(mk("new", "p", "v")); !ok {
		t.Fatal("restart resurrected the pre-persist state")
	}

	// JSONL failure: an error, so nothing may be truncated.
	fsyncFile = func(f *os.File) error { return errors.New("injected fsync failure") }
	if _, err := s.Persist(path); err == nil {
		t.Fatal("failed JSONL save reported as a successful persist")
	}

	// A snapshot that can be neither replaced nor removed (here a non-empty
	// directory in its place) would shadow the JSONL on the next start: the
	// JSONL is still written, but the persist is an error.
	fsyncFile = orig
	stuck := filepath.Join(dir, "stuck.jsonl")
	if err := os.MkdirAll(filepath.Join(BinaryPath(stuck), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	res, err = s.Persist(stuck)
	if err == nil || res.SnapshotErr == nil {
		t.Fatalf("unremovable stale snapshot: res %+v, err %v; want both errors", res, err)
	}
	if got, err := Load(stuck); err != nil || got.Len() != 1 {
		t.Fatalf("JSONL not written alongside the stuck snapshot: %v", err)
	}
}

// TestInstallReplacesStoreAndSnapshot: a bootstrap image installed over an
// existing store is what the next LoadPreferred reads — the older snapshot
// next to it must not shadow it.
func TestInstallReplacesStoreAndSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	old := New()
	old.Put(Entry{Triple: mk("old", "p", "v"), Sources: []string{"S1"}})
	if _, err := old.Persist(path); err != nil {
		t.Fatal(err)
	}
	image := `{"subject":"new","predicate":"p","object":"v","sources":["S1"]}` + "\n"
	if err := Install(path, strings.NewReader(image)); err != nil {
		t.Fatal(err)
	}
	got, info, err := LoadPreferred(path)
	if err != nil || info.Format != FormatJSONL {
		t.Fatalf("load after Install: %+v, %v", info, err)
	}
	if _, ok := got.Get(mk("new", "p", "v")); !ok || got.Len() != 1 {
		t.Fatalf("installed image not served: %d entries", got.Len())
	}
}

// TestDatasetEqualsObserveLoop: Dataset's row insert builds what its
// per-pair Observe/SetLabel loop (kept here as the reference) built, ID for
// ID: sources in order of first appearance, an entry that carries only a
// fusion result left out, an unlabeled provided entry left unlabeled.
func TestDatasetEqualsObserveLoop(t *testing.T) {
	s := New()
	s.Put(Entry{Triple: mk("a", "p", "1"), Sources: []string{"z", "m"}, Label: "true"})
	s.SetFusion(mk("fused", "p", "only"), 0.9, true)
	s.Put(Entry{Triple: mk("gold", "p", "missed"), Label: "false"})
	s.Put(Entry{Triple: mk("a", "p", "2"), Sources: []string{"m", "a"}})
	s.Put(Entry{Triple: mk("a", "p", "1"), Sources: []string{"late"}})
	s.Put(Entry{Triple: mk("b", "p", "1"), Sources: []string{"late", "z"}, Label: "false", Probability: 0.2})

	want := triple.NewDataset()
	for _, e := range s.entries {
		for _, src := range e.Sources {
			want.Observe(want.AddSource(src), e.Triple)
		}
		if l, _ := triple.ParseGold(e.Label); l != triple.Unknown {
			want.SetLabel(e.Triple, l)
		}
	}
	got := s.Dataset()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Sources(), want.Sources()) || got.NumTriples() != want.NumTriples() || got.NumTriples() != 4 {
		t.Fatalf("sources %v, %d triples; the loop built %v, %d", got.Sources(), got.NumTriples(), want.Sources(), want.NumTriples())
	}
	for i := 0; i < want.NumTriples(); i++ {
		id := triple.TripleID(i)
		if got.Triple(id) != want.Triple(id) || got.Label(id) != want.Label(id) || !slices.Equal(got.Providers(id), want.Providers(id)) {
			t.Fatalf("triple %d: %v %v %v, the loop built %v %v %v", id,
				got.Triple(id), got.Label(id), got.Providers(id), want.Triple(id), want.Label(id), want.Providers(id))
		}
	}
	for _, src := range want.Sources() {
		if !slices.Equal(got.Output(src.ID), want.Output(src.ID)) {
			t.Fatalf("output of %s: %v, the loop built %v", src.Name, got.Output(src.ID), want.Output(src.ID))
		}
	}
}
