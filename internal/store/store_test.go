package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestPutCompactsRepeatedSources: a new entry that names a source twice
// holds it once, so the JSONL file writes it back once and the image holds
// one ref, as Capture and fuse count it.
func TestPutCompactsRepeatedSources(t *testing.T) {
	s := New()
	line := `{"subject":"s","predicate":"p","object":"o","sources":["a","a"]}` + "\n"
	if err := s.Read(strings.NewReader(line)); err != nil {
		t.Fatal(err)
	}
	if e, _ := s.Get(mk("s", "p", "o")); !slices.Equal(e.Sources, []string{"a"}) {
		t.Fatalf("entry sources %q, want [a]", e.Sources)
	}
	var jsonl, img bytes.Buffer
	if err := s.Write(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"sources":["a"]`) {
		t.Fatalf("JSONL %q does not hold [\"a\"]", jsonl.String())
	}
	if err := s.WriteBinary(&img); err != nil {
		t.Fatal(err)
	}
	if refs := binary.LittleEndian.Uint64(img.Bytes()[24:32]); refs != 1 {
		t.Fatalf("image holds %d source refs, want 1", refs)
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

// TestShardVersions: per-shard version tracking is inert — TrackShards
// changes nothing and ShardVersions is nil before and after mutations —
// while the global data version still advances.
func TestShardVersions(t *testing.T) {
	s := New()
	s.TrackShards(4)
	s.Put(Entry{Triple: mk("Obama", "profession", "president"), Sources: []string{"S1"}})
	if got := s.ShardVersions(); got != nil {
		t.Fatalf("ShardVersions = %v, want nil", got)
	}
	if s.Version() == 0 {
		t.Fatal("Put did not advance the data version")
	}
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

// TestPersistOrderAndTruncateSafety pins the one persist path: the snapshot
// and the JSONL file are saved at once, and success (= the WAL may be
// truncated) comes only after both, and only while no stale snapshot can
// shadow the JSONL on the next LoadPreferred.
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
	// The snapshot's fsync waits for the JSONL's to begin: saves made one
	// after the other never get there, and the failure is injected after.
	jsonlSyncing := make(chan struct{})
	var jsonlOnce sync.Once
	overlapped := false
	orig := fsyncFile
	defer func() { fsyncFile = orig }()
	fsyncFile = func(f *os.File) error {
		switch filepath.Ext(f.Name()) {
		case ".jsonl":
			jsonlOnce.Do(func() { close(jsonlSyncing) })
		case ".cfsn":
			select {
			case <-jsonlSyncing:
				overlapped = true
			case <-time.After(10 * time.Second):
			}
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
	if !overlapped {
		t.Fatal("the snapshot save was never fsyncing while the JSONL save was: the saves did not run at once")
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

// refCapture is the capture Capture replaced: one InsertNamedRow per entry
// with a source or a label, each row interned by lookup-then-insert.
func refCapture(s *Store) *triple.Dataset {
	d := triple.NewDatasetCap(0, len(s.entries))
	for i := range s.entries {
		e := &s.entries[i]
		if l, _ := triple.ParseGold(e.Label); len(e.Sources) > 0 || l != triple.Unknown {
			d.InsertNamedRow(e.Triple, e.Sources, l)
		}
	}
	return d
}

// randomStore applies a random Put/SetFusion sequence: merges, label
// changes, label-only entries, repeated sources within one Put, and
// evidence-less entries interned by SetFusion.
func randomStore(rng *rand.Rand, ops int) *Store {
	s := New()
	key := func() triple.Triple {
		return mk(fmt.Sprintf("s%d", rng.Intn(12)), "p", fmt.Sprintf("o%d", rng.Intn(9)))
	}
	labels := []string{"", "", "true", "false"}
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0:
			s.SetFusion(key(), rng.Float64(), rng.Intn(2) == 0)
		case 1:
			s.Put(Entry{Triple: key(), Label: labels[rng.Intn(len(labels))]})
		default:
			var srcs []string
			for k := rng.Intn(4); k > 0; k-- {
				srcs = append(srcs, fmt.Sprintf("src%d", rng.Intn(7)))
			}
			s.Put(Entry{Triple: key(), Sources: srcs, Label: labels[rng.Intn(len(labels))]})
		}
	}
	return s
}

// TestCaptureEqualsInsertRowLoop: over random Put sequences, Capture builds
// the dataset the per-entry InsertNamedRow loop built, field for field, and
// rows[id] is the entry each triple was captured from.
func TestCaptureEqualsInsertRowLoop(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		s := randomStore(rand.New(rand.NewSource(seed)), 1+int(seed)%80)
		got, rows := s.Capture()
		want := refCapture(s)
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rows) != got.NumTriples() || got.NumTriples() != want.NumTriples() || !slices.Equal(got.Sources(), want.Sources()) {
			t.Fatalf("seed %d: %d triples, %d rows, sources %v; the loop built %d triples, sources %v",
				seed, got.NumTriples(), len(rows), got.Sources(), want.NumTriples(), want.Sources())
		}
		for i := 0; i < want.NumTriples(); i++ {
			id := triple.TripleID(i)
			if s.entries[rows[i]].Triple != got.Triple(id) {
				t.Fatalf("seed %d: rows[%d] = %d holds %v, the dataset %v", seed, i, rows[i], s.entries[rows[i]].Triple, got.Triple(id))
			}
			if got.Triple(id) != want.Triple(id) || got.Label(id) != want.Label(id) || !slices.Equal(got.Providers(id), want.Providers(id)) {
				t.Fatalf("seed %d triple %d: %v %v %v, the loop built %v %v %v", seed, id,
					got.Triple(id), got.Label(id), got.Providers(id), want.Triple(id), want.Label(id), want.Providers(id))
			}
			if provs := got.Providers(id); cap(provs) != len(provs) {
				t.Fatalf("seed %d triple %d: provider list has cap %d > len %d", seed, id, cap(provs), len(provs))
			}
		}
		for _, src := range want.Sources() {
			if out := got.Output(src.ID); !slices.Equal(out, want.Output(src.ID)) || cap(out) != len(out) {
				t.Fatalf("seed %d: output of %s: %v (cap %d), the loop built %v", seed, src.Name, out, cap(out), want.Output(src.ID))
			}
		}
	}
}

// TestSetFusionRowsEqualsSetFusion: writing a result back by capture row
// leaves every entry as the per-triple SetFusion loop leaves it on a clone,
// with an entry appended after the capture and unprovided IDs untouched.
func TestSetFusionRowsEqualsSetFusion(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomStore(rng, 1+int(seed)%60)
		d, rows := s.Capture()
		s.Put(Entry{Triple: mk("late", "p", "o"), Sources: []string{"src1"}, Probability: 0.3, Accepted: true})
		n := d.NumTriples()
		probs, provided, accepted := make([]float64, n), make([]bool, n), make([]bool, n)
		for i := range probs {
			probs[i], provided[i], accepted[i] = rng.Float64(), rng.Intn(4) > 0, rng.Intn(2) == 0
		}
		ref := New()
		ref.entries = slices.Clone(s.entries)
		ref.byKey = maps.Clone(s.byKey)
		wantTriples, wantAccepted := 0, 0
		for i, ok := range provided {
			if ok {
				ref.SetFusion(d.Triple(triple.TripleID(i)), probs[i], accepted[i])
				wantTriples++
				if accepted[i] {
					wantAccepted++
				}
			}
		}
		nt, na := s.SetFusionRows(rows, probs, provided, accepted)
		if nt != wantTriples || na != wantAccepted {
			t.Fatalf("seed %d: counted %d triples, %d accepted; want %d, %d", seed, nt, na, wantTriples, wantAccepted)
		}
		if len(s.entries) != len(ref.entries) {
			t.Fatalf("seed %d: %d entries, the SetFusion loop left %d", seed, len(s.entries), len(ref.entries))
		}
		for i := range ref.entries {
			if !reflect.DeepEqual(s.entries[i], ref.entries[i]) {
				t.Fatalf("seed %d entry %d: %+v, the SetFusion loop left %+v", seed, i, s.entries[i], ref.entries[i])
			}
		}
	}
}

// TestSetFusionRowsAllocatesNothing: the row-indexed writeback makes no
// allocation.
func TestSetFusionRowsAllocatesNothing(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(3)), 200)
	d, rows := s.Capture()
	n := d.NumTriples()
	probs, provided, accepted := make([]float64, n), make([]bool, n), make([]bool, n)
	for i := range provided {
		probs[i], provided[i], accepted[i] = 0.5, true, i%2 == 0
	}
	if a := testing.AllocsPerRun(10, func() { s.SetFusionRows(rows, probs, provided, accepted) }); a != 0 {
		t.Fatalf("SetFusionRows made %v allocations", a)
	}
}

// TestCaptureAllocationsIndependentOfEntries: a capture allocates per
// source and per structure, never per entry: a store and one with four
// times the entries over the same sources cost the same allocations. Both
// sizes stay under one Go map table (896 keys), whose layout is the map's
// own business.
func TestCaptureAllocationsIndependentOfEntries(t *testing.T) {
	allocs := func(n int) float64 {
		s := New()
		for i := 0; i < n; i++ {
			s.Put(Entry{Triple: mk(fmt.Sprintf("s%d", i%20), "p", fmt.Sprintf("o%d", i)),
				Sources: []string{fmt.Sprintf("src%d", i%6), fmt.Sprintf("src%d", (i+1+i%4)%6)}, Label: []string{"", "true", "false"}[i%3]})
		}
		return testing.AllocsPerRun(5, func() { s.Capture() })
	}
	if small, large := allocs(200), allocs(800); small != large {
		t.Fatalf("Capture made %v allocations on 200 entries and %v on 800 over the same sources: something is allocated per entry", small, large)
	}
}

// TestPutLeavesReturnedSourcesAlone: an entry Get returned keeps its source
// list when a later Put adds a source, even one that sorts first into a list
// with spare capacity; readers use the list outside the store's lock.
func TestPutLeavesReturnedSourcesAlone(t *testing.T) {
	s := New()
	tt := mk("s", "p", "o")
	for _, src := range []string{"b", "c", "d"} {
		s.Put(Entry{Triple: tt, Sources: []string{src}})
	}
	got, _ := s.Get(tt)
	s.Put(Entry{Triple: tt, Sources: []string{"a"}})
	if !slices.Equal(got.Sources, []string{"b", "c", "d"}) {
		t.Fatalf("a returned entry's sources changed under a later Put: %v", got.Sources)
	}
	if now, _ := s.Get(tt); !slices.Equal(now.Sources, []string{"a", "b", "c", "d"}) {
		t.Fatalf("sources after the Put: %v", now.Sources)
	}
}
