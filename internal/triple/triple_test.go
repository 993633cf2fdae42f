package triple

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func tr(s, p, o string) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// splitKey reads a Key back into its components.
func splitKey(k string) (Triple, bool) {
	parts := strings.Split(k, "\x1f")
	if len(parts) != 3 {
		return Triple{}, false
	}
	return tr(parts[0], parts[1], parts[2]), true
}

func TestKeyRoundTrip(t *testing.T) {
	cases := []Triple{
		tr("Obama", "profession", "president"),
		tr("", "", ""),
		tr("a b", "c,d", "e|f"),
		tr("unicode-日本", "語", "🙂"),
	}
	for _, c := range cases {
		if got, ok := splitKey(c.Key()); !ok || got != c {
			t.Errorf("round trip %v != %v", got, c)
		}
	}
}

func TestKeyRoundTripProperty(t *testing.T) {
	f := func(s, p, o string) bool {
		// The separator byte cannot appear in components.
		for _, str := range []string{s, p, o} {
			for i := 0; i < len(str); i++ {
				if str[i] == 0x1f {
					return true // skip
				}
			}
		}
		in := tr(s, p, o)
		out, ok := splitKey(in.Key())
		return ok && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabelString(t *testing.T) {
	if Unknown.String() != "unknown" || True.String() != "true" || False.String() != "false" {
		t.Error("Label.String mismatch")
	}
}

func TestAddSourceIdempotent(t *testing.T) {
	d := NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	if a == b {
		t.Fatal("distinct sources share an ID")
	}
	if again := d.AddSource("A"); again != a {
		t.Errorf("re-adding A: got %d, want %d", again, a)
	}
	if d.NumSources() != 2 {
		t.Errorf("NumSources = %d, want 2", d.NumSources())
	}
	if d.SourceName(a) != "A" {
		t.Errorf("SourceName(%d) = %q", a, d.SourceName(a))
	}
	if id, ok := d.SourceID("B"); !ok || id != b {
		t.Errorf("SourceID(B) = (%d, %v)", id, ok)
	}
	if _, ok := d.SourceID("C"); ok {
		t.Error("SourceID(C) should be missing")
	}
}

func TestObserveIdempotent(t *testing.T) {
	d := NewDataset()
	a := d.AddSource("A")
	x := tr("e", "p", "v")
	id1 := d.Observe(a, x)
	id2 := d.Observe(a, x)
	if id1 != id2 {
		t.Fatalf("duplicate Observe returned different IDs: %d, %d", id1, id2)
	}
	if got := len(d.Providers(id1)); got != 1 {
		t.Errorf("providers = %d, want 1", got)
	}
	if got := d.OutputSize(a); got != 1 {
		t.Errorf("|O_A| = %d, want 1", got)
	}
}

func TestObservePanicsOnUnknownSource(t *testing.T) {
	d := NewDataset()
	defer func() {
		if recover() == nil {
			t.Error("Observe with unregistered source should panic")
		}
	}()
	d.Observe(SourceID(3), tr("e", "p", "v"))
}

func TestLabels(t *testing.T) {
	d := NewDataset()
	a := d.AddSource("A")
	x, y, z := tr("e", "p", "1"), tr("e", "p", "2"), tr("e", "p", "3")
	d.Observe(a, x)
	d.Observe(a, y)
	d.SetLabel(x, True)
	d.SetLabel(y, False)
	d.SetLabel(z, True) // unprovided gold triple
	nt, nf := d.CountLabels()
	if nt != 2 || nf != 1 {
		t.Errorf("CountLabels = (%d, %d), want (2, 1)", nt, nf)
	}
	if got := len(d.Labeled()); got != 3 {
		t.Errorf("Labeled = %d, want 3", got)
	}
	if got := len(d.FalseTriples()); got != 1 {
		t.Errorf("FalseTriples = %d, want 1", got)
	}
	zid, ok := d.TripleID(z)
	if !ok {
		t.Fatal("labeled triple not interned")
	}
	if len(d.Providers(zid)) != 0 {
		t.Error("unprovided triple has providers")
	}
}

func TestProvidersSorted(t *testing.T) {
	d := NewDataset()
	var ids []SourceID
	for _, n := range []string{"C", "A", "B", "E", "D"} {
		ids = append(ids, d.AddSource(n))
	}
	x := tr("e", "p", "v")
	// Observe in a scrambled order.
	for _, i := range []int{3, 0, 4, 2, 1} {
		d.Observe(ids[i], x)
	}
	id, _ := d.TripleID(x)
	prov := d.Providers(id)
	for i := 1; i < len(prov); i++ {
		if prov[i-1] >= prov[i] {
			t.Fatalf("providers not strictly sorted: %v", prov)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := NewDataset()
	a := d.AddSource("A")
	x := tr("e", "p", "v")
	d.Observe(a, x)
	d.SetLabel(x, True)

	c := d.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	b := c.AddSource("B")
	c.Observe(b, tr("e", "p", "w"))
	c.SetLabel(x, False)
	if d.NumSources() != 1 {
		t.Error("clone mutation leaked sources into original")
	}
	id, _ := d.TripleID(x)
	if d.Label(id) != True {
		t.Error("clone mutation leaked labels into original")
	}
}

func TestScopeGlobal(t *testing.T) {
	d := NewDataset()
	a := d.AddSource("A")
	x := tr("e", "p", "v")
	id := d.Observe(a, x)
	if !(ScopeGlobal{}).InScope(d, a, id) {
		t.Error("ScopeGlobal should always be in scope")
	}
}

func TestScopeSubject(t *testing.T) {
	d := NewDataset()
	a := d.AddSource("A")
	b := d.AddSource("B")
	obama1 := tr("Obama", "profession", "president")
	obama2 := tr("Obama", "profession", "lawyer")
	bush := tr("Bush", "profession", "president")
	d.Observe(a, obama1)
	d.Observe(b, bush)
	id2 := d.SetLabel(obama2, True)

	sc := NewScopeSubject(d)
	if !sc.InScope(d, a, id2) {
		t.Error("A covers Obama, should be in scope for obama2")
	}
	if sc.InScope(d, b, id2) {
		t.Error("B covers only Bush, should be out of scope for obama2")
	}
	bushID, _ := d.TripleID(bush)
	if sc.InScope(d, a, bushID) {
		t.Error("A does not cover Bush")
	}
	// A different dataset falls back to conservative true.
	other := NewDataset()
	other.AddSource("A")
	oid := other.Observe(0, obama2)
	if !sc.InScope(other, 0, oid) {
		t.Error("foreign dataset should be conservatively in scope")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	d := NewDataset()
	a := d.AddSource("A")
	d.Observe(a, tr("e", "p", "v"))
	// Corrupt: remove the output entry but keep the provider entry.
	d.outputs[a] = nil
	if err := d.Validate(); err == nil {
		t.Error("Validate should detect asymmetric observation")
	}
}

func TestDatasetZeroValueBuilders(t *testing.T) {
	var d Dataset
	a := d.AddSource("A")
	id := d.Observe(a, tr("e", "p", "v"))
	if id != 0 || d.NumTriples() != 1 {
		t.Error("zero-value Dataset should be usable")
	}
}

// refInsertRow is the per-pair loop InsertNamedRow replaced (dataset.Read's,
// before the row insert), kept as its reference.
func refInsertRow(d *Dataset, t Triple, names []string, l Label) TripleID {
	id := TripleID(-1)
	for _, name := range names {
		id = d.Observe(d.AddSource(name), t)
	}
	if l != Unknown || len(names) == 0 {
		id = d.SetLabel(t, l)
	}
	return id
}

// sameDataset compares everything a Dataset exposes, ID by ID.
func sameDataset(t *testing.T, got, want *Dataset) {
	t.Helper()
	if !slices.Equal(got.Sources(), want.Sources()) {
		t.Fatalf("sources %v, want %v", got.Sources(), want.Sources())
	}
	if got.NumTriples() != want.NumTriples() {
		t.Fatalf("%d triples, want %d", got.NumTriples(), want.NumTriples())
	}
	for i := 0; i < want.NumTriples(); i++ {
		id := TripleID(i)
		if got.Triple(id) != want.Triple(id) || got.Label(id) != want.Label(id) || !slices.Equal(got.Providers(id), want.Providers(id)) {
			t.Fatalf("triple %d: %v %v %v, want %v %v %v", id,
				got.Triple(id), got.Label(id), got.Providers(id), want.Triple(id), want.Label(id), want.Providers(id))
		}
		if gid, ok := got.TripleID(want.Triple(id)); !ok || gid != id {
			t.Fatalf("TripleID(%v) = %d, %v; want %d", want.Triple(id), gid, ok, id)
		}
	}
	for _, src := range want.Sources() {
		if !slices.Equal(got.Output(src.ID), want.Output(src.ID)) {
			t.Fatalf("output of %s: %v, want %v", src.Name, got.Output(src.ID), want.Output(src.ID))
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRowEqualsObserveLoop: on random row streams — duplicate sources
// inside a row, the same triple on several rows, label-only rows, unlabeled
// rows after labeled ones, sources first seen mid-file — the row insert
// leaves exactly the dataset the per-pair loop leaves, with the same IDs.
func TestInsertRowEqualsObserveLoop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		named, byID, want := NewDataset(), NewDatasetCap(3, 7), NewDataset()
		for row := 0; row < 400; row++ {
			// Rows draw from a window of sources and triples that widens
			// with the row number, so both keep appearing mid-stream.
			tt := tr(fmt.Sprintf("s%d", rng.Intn(5+row/4)), "p", fmt.Sprintf("o%d", rng.Intn(2)))
			var names []string
			for k := rng.Intn(7); k > 0 && rng.Intn(8) > 0; k-- { // Intn(8) == 0: a row without sources
				names = append(names, fmt.Sprintf("src%d", rng.Intn(2+row/20)))
			}
			l := Label(rng.Intn(3))
			wantID := refInsertRow(want, tt, names, l)
			if id := named.InsertNamedRow(tt, names, l); id != wantID {
				t.Fatalf("seed %d row %d: InsertNamedRow returned %d, the loop %d", seed, row, id, wantID)
			}
			provs := make([]SourceID, len(names))
			for i, name := range names {
				provs[i] = byID.AddSource(name)
			}
			given := slices.Clone(provs)
			if id := byID.InsertRow(tt, provs, l); id != wantID {
				t.Fatalf("seed %d row %d: InsertRow returned %d, the loop %d", seed, row, id, wantID)
			}
			if !slices.Equal(provs, given) {
				t.Fatalf("seed %d row %d: InsertRow reordered its argument: %v, was %v", seed, row, provs, given)
			}
		}
		sameDataset(t, named, want)
		sameDataset(t, byID, want)
	}
}

func TestInsertRowPanicsOnUnknownSource(t *testing.T) {
	d := NewDataset()
	d.AddSource("A")
	defer func() {
		if recover() == nil {
			t.Error("InsertRow with unregistered source should panic")
		}
		if d.NumTriples() != 0 {
			t.Error("the refused row left a triple behind")
		}
	}()
	d.InsertRow(tr("e", "p", "v"), []SourceID{0, 3}, True)
}

// TestNewDatasetRowsRepeatPanics: NewDatasetRows interns each row with one
// map operation, so a repeated triple must fail loudly rather than leave two
// IDs for one key.
func TestNewDatasetRowsRepeatPanics(t *testing.T) {
	tt := Triple{Subject: "s", Predicate: "p", Object: "o"}
	defer func() {
		if recover() == nil {
			t.Fatal("a repeated triple did not panic")
		}
	}()
	NewDatasetRows(2, 0, func(int) (Triple, []string, Label) { return tt, nil, True })
}

// TestDerivedDatasetMutatesPrivately: interning into a derived dataset copies
// the key maps it shares first, so the dataset it derives from still
// answers as before, and the derived one finds every triple, old and new.
func TestDerivedDatasetMutatesPrivately(t *testing.T) {
	rows := []struct {
		t     Triple
		names []string
	}{{tr("a", "p", "v"), []string{"s1"}}, {tr("b", "p", "v"), []string{"s1", "s2"}}, {tr("c", "p", "v"), []string{"s2"}}}
	row := func(i int) (Triple, []string, Label) { return rows[i].t, rows[i].names, Unknown }
	prev := NewDatasetRows(2, 3, row)
	d := prev.DeriveRows(3, nil, row)
	if d == nil {
		t.Fatal("one row appended to two folded: DeriveRows refolded")
	}
	if id, ok := d.TripleID(tr("c", "p", "v")); !ok || id != 2 {
		t.Fatalf("TripleID(c) = %d, %v on the derived dataset", id, ok)
	}
	d.Observe(0, tr("x", "p", "v"))
	if _, ok := prev.TripleID(tr("x", "p", "v")); ok {
		t.Fatal("interning into the derived dataset reached the one it derives from")
	}
	for i, want := range []Triple{tr("a", "p", "v"), tr("b", "p", "v"), tr("c", "p", "v"), tr("x", "p", "v")} {
		if id, ok := d.TripleID(want); !ok || id != TripleID(i) {
			t.Fatalf("TripleID(%v) = %d, %v after the intern; want %d", want, id, ok, i)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveRowsFoldsStaleProviders: a derivation that only changes rows
// replaces their provider lists, but the arrays the old lists were cut from
// stay alive while unchanged rows point into them. DeriveRows keeps the
// replaced SourceIDs at most the live ones and folds past that, so a store
// that only adds sources to its triples does not pin ever more arrays.
func TestDeriveRowsFoldsStaleProviders(t *testing.T) {
	const n, extra = 20, 6
	names := make([][]string, n)
	for i := range names {
		names[i] = []string{"s0"}
	}
	for k := 1; k <= extra; k++ {
		names[0] = append(names[0], fmt.Sprintf("s%d", k)) // every source first appears on row 0
	}
	row := func(i int) (Triple, []string, Label) { return tr(fmt.Sprint(i), "p", "v"), names[i], Unknown }
	d := NewDatasetRows(n, n+extra, row)
	for step := 0; ; step++ {
		id := 1 + step%(n-1)
		names[id] = append(slices.Clip(names[id]), fmt.Sprintf("s%d", 1+step/(n-1)))
		next := d.DeriveRows(n, []TripleID{TripleID(id)}, row)
		if next == nil {
			if d.stale+len(d.providers[id]) <= d.refs {
				t.Fatalf("step %d folded with %d stale SourceIDs of %d live", step, d.stale+len(d.providers[id]), d.refs)
			}
			return
		}
		if next.stale > next.refs {
			t.Fatalf("step %d: %d stale SourceIDs of %d live", step, next.stale, next.refs)
		}
		if step > n*extra {
			t.Fatalf("%d derivations that only change rows never folded", step)
		}
		d = next
	}
}

// BenchmarkTripleIDKeyMaps times TripleID on a 90 000-triple base followed
// by k key maps of 5 000 triples each, the shape of ingest-refuse's store
// after k derived captures: a miss probes every map, which is what
// maxKeyMaps trades against a fold.
func BenchmarkTripleIDKeyMaps(b *testing.B) {
	const base, step = 90000, 5000
	for _, k := range []int{0, 1, 2, 4, 8} {
		n := base + k*step
		row := func(i int) (Triple, []string, Label) {
			return tr(fmt.Sprintf("item-%06d", i/7), "value", fmt.Sprintf("v%d", i%7)), []string{"s"}, Unknown
		}
		d := NewDatasetRows(base, base, row)
		for m := base + step; m <= n; m += step {
			d = d.DeriveRows(m, nil, row)
		}
		if len(d.appended) != k {
			b.Fatalf("%d key maps after the base, want %d", len(d.appended), k)
		}
		miss := tr("item-999999", "value", "v0")
		b.Run(fmt.Sprintf("maps=%d/miss", k), func(b *testing.B) {
			for b.Loop() {
				d.TripleID(miss)
			}
		})
	}
}
