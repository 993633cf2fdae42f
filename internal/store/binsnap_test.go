package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"corrfuse/internal/triple"
)

// snapStore builds a store with the shapes that stress the binary format:
// shared strings across entries, empty labels, zero-source fusion interns,
// denormal and tie probabilities.
func snapStore() *Store {
	s := New()
	for i := 0; i < 64; i++ {
		e := Entry{
			Triple: triple.Triple{
				Subject:   fmt.Sprintf("subject-%d", i%8),
				Predicate: fmt.Sprintf("pred-%d", i%3),
				Object:    fmt.Sprintf("object-%d", i),
			},
			Sources: []string{fmt.Sprintf("src-%d", i%5), "shared-source"},
		}
		if i%4 == 0 {
			e.Label = "true"
		} else if i%4 == 1 {
			e.Label = "false"
		}
		s.Put(e)
		if i%2 == 0 {
			s.SetFusion(e.Triple, float64(i%7)/7.0, i%3 == 0)
		}
	}
	// A fusion-only intern (no provenance) and extreme probabilities.
	s.SetFusion(triple.Triple{Subject: "ghost", Predicate: "p", Object: "o"}, 5e-324, false)
	s.SetFusion(triple.Triple{Subject: "subject-0", Predicate: "pred-0", Object: "object-0"}, 0.25, true)
	s.SetFusion(triple.Triple{Subject: "subject-0", Predicate: "pred-0", Object: "object-8"}, 0.25, true)
	s.Put(Entry{Triple: triple.Triple{Subject: "uni \u00e9", Predicate: "p\tq", Object: "emoji \U0001f600"},
		Sources: []string{"s\u00f8urce <&>"}, Label: "false"})
	return s
}

// sameEntries asserts a and b store identical entry sets (probability
// compared bit-exactly) and identical secondary-index membership.
func sameEntries(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len mismatch: %d vs %d", a.Len(), b.Len())
	}
	for _, e := range a.entries {
		got, ok := b.Get(e.Triple)
		if !ok {
			t.Fatalf("lost %v", e.Triple)
		}
		if math.Float64bits(got.Probability) != math.Float64bits(e.Probability) {
			t.Fatalf("%v probability changed: %x vs %x", e.Triple,
				math.Float64bits(e.Probability), math.Float64bits(got.Probability))
		}
		got.Probability, e.Probability = 0, 0
		if len(got.Sources) == 0 && len(e.Sources) == 0 {
			got.Sources, e.Sources = nil, nil
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("%v changed:\n  before %+v\n  after  %+v", e.Triple, e, got)
		}
	}
	// Secondary indexes agree as sets (the binary load pre-ranks them,
	// insertion order is not preserved).
	for name, pair := range map[string][2]map[string][]int{
		"bySubject":   {a.bySubject, b.bySubject},
		"byPredicate": {a.byPredicate, b.byPredicate},
		"bySource":    {a.bySource, b.bySource},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s key count: %d vs %d", name, len(pair[0]), len(pair[1]))
		}
		for k, idxs := range pair[0] {
			keys := func(s *Store, idxs []int) []string {
				out := make([]string, len(idxs))
				for i, j := range idxs {
					out[i] = s.entries[j].Triple.Key()
				}
				sort.Strings(out)
				return out
			}
			if !reflect.DeepEqual(keys(a, idxs), keys(b, pair[1][k])) {
				t.Fatalf("%s[%q] membership differs", name, k)
			}
		}
	}
	// No version comparison here: SetFusion interns entries without
	// advancing the version, so any reload — JSONL or binary — can land
	// on a different count than the live store it was saved from.
	// TestBinaryVersionMatchesJSONLLoad pins the invariant that matters.
}

// TestBinaryVersionMatchesJSONLLoad: a binary load must report the same
// data version a JSONL load of the same store would, so downstream
// version-compare logic (refreshers, shard trackers) behaves identically
// whichever format served the cold start.
func TestBinaryVersionMatchesJSONLLoad(t *testing.T) {
	s := snapStore()
	var jbuf, bbuf bytes.Buffer
	if err := s.Write(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	viaJSONL := New()
	if err := viaJSONL.Read(bytes.NewReader(jbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	viaBinary, err := loadBinary(bbuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if viaBinary.Version() != viaJSONL.Version() {
		t.Fatalf("binary load version %d, JSONL load version %d", viaBinary.Version(), viaJSONL.Version())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := snapStore()
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, s, got)
}

func TestBinaryDeterministic(t *testing.T) {
	s := snapStore()
	var a, b bytes.Buffer
	if err := s.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same store differ")
	}
}

func TestBinaryPostingsRanked(t *testing.T) {
	s := snapStore()
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string][]int{got.bySubject, got.byPredicate, got.bySource} {
		for k, idxs := range m {
			for i := 1; i < len(idxs); i++ {
				a, b := &got.entries[idxs[i-1]], &got.entries[idxs[i]]
				if a.Probability < b.Probability ||
					(a.Probability == b.Probability && a.Triple.Key() > b.Triple.Key()) {
					t.Fatalf("posting %q not ranked at position %d", k, i)
				}
			}
		}
	}
}

func TestBinarySaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	s := snapStore()
	if err := s.SaveBinary(BinaryPath(path)); err != nil {
		t.Fatal(err)
	}
	got, info, err := LoadBinary(BinaryPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != FormatBinary || info.Bytes <= 0 {
		t.Fatalf("info = %+v", info)
	}
	sameEntries(t, s, got)
}

func TestLoadPreferred(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	s := snapStore()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}

	// No binary snapshot: quiet JSONL fallback, no reason recorded.
	got, info, err := LoadPreferred(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != "jsonl" || info.FallbackReason != "" {
		t.Fatalf("missing snapshot: info = %+v", info)
	}
	sameEntries(t, s, got)

	// Valid binary snapshot: preferred.
	if err := s.SaveBinary(BinaryPath(path)); err != nil {
		t.Fatal(err)
	}
	got, info, err = LoadPreferred(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != "binary" || info.Bytes <= 0 {
		t.Fatalf("valid snapshot: info = %+v", info)
	}
	sameEntries(t, s, got)

	// Corrupt snapshot: loud JSONL fallback.
	raw, err := os.ReadFile(BinaryPath(path))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(BinaryPath(path), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, info, err = LoadPreferred(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != "jsonl" || info.FallbackReason == "" {
		t.Fatalf("corrupt snapshot: info = %+v", info)
	}
	sameEntries(t, s, got)
}

// TestBinaryCorruptionDetected flips, truncates and tears the snapshot in
// every section and asserts the loader reports ErrBadSnapshot — loudly,
// never a panic, never a silently wrong store.
func TestBinaryCorruptionDetected(t *testing.T) {
	s := snapStore()
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte) {
		t.Helper()
		st, err := loadBinary(data)
		if err == nil {
			t.Fatalf("%s: corrupt snapshot loaded (%d entries)", name, st.Len())
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: error %v does not wrap ErrBadSnapshot", name, err)
		}
	}

	// Truncations at every section boundary and mid-section.
	for _, n := range []int{0, 3, binHeaderLen - 1, binHeaderLen, len(good) / 3, len(good) / 2, len(good) - 1} {
		check(fmt.Sprintf("truncate-to-%d", n), good[:n])
	}
	// Single bit flips spread across the file (header, arena, entries,
	// postings, CRC footer).
	for i := 0; i < len(good); i += len(good)/37 + 1 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x01
		check(fmt.Sprintf("bitflip-at-%d", i), bad)
	}
	// A torn write: valid prefix, zero tail (what a crash mid-write could
	// leave if rename discipline were violated).
	torn := append([]byte(nil), good...)
	for i := len(torn) / 2; i < len(torn); i++ {
		torn[i] = 0
	}
	check("torn-tail", torn)
	// Trailing garbage.
	check("trailing-garbage", append(append([]byte(nil), good...), 0xde, 0xad))
	// Wrong magic / version.
	wrongMagic := append([]byte(nil), good...)
	copy(wrongMagic, "XFSN")
	check("bad-magic", wrongMagic)
	wrongVer := append([]byte(nil), good...)
	wrongVer[4] = 0xee
	check("bad-version", wrongVer)
}

func TestBinaryEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Version() != 0 {
		t.Fatalf("empty store round trip: len=%d version=%d", got.Len(), got.Version())
	}
}

// FuzzLoadBinary feeds arbitrary bytes to the binary loader: it must
// never panic, and anything it accepts must survive a re-serialize /
// re-load round trip identically.
func FuzzLoadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := snapStore().WriteBinary(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// A minimal one-entry snapshot keeps engine-side minimization cheap.
	tiny := New()
	tiny.Put(Entry{Triple: triple.Triple{Subject: "s", Predicate: "p", Object: "o"}, Sources: []string{"a"}})
	var tinyBuf bytes.Buffer
	if err := tiny.WriteBinary(&tinyBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(tinyBuf.Bytes())
	f.Add([]byte("CFSN"))
	f.Add([]byte{})
	trunc := seed.Bytes()
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := loadBinary(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := st.WriteBinary(&buf); err != nil {
			t.Fatalf("accepted store failed to serialize: %v", err)
		}
		st2, err := loadBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if st2.Len() != st.Len() {
			t.Fatalf("round trip changed Len: %d -> %d", st.Len(), st2.Len())
		}
		for _, e := range st.entries {
			got, ok := st2.Get(e.Triple)
			if !ok {
				t.Fatalf("round trip lost %v", e.Triple)
			}
			if math.Float64bits(got.Probability) != math.Float64bits(e.Probability) ||
				got.Label != e.Label || got.Accepted != e.Accepted ||
				!reflect.DeepEqual(got.Sources, e.Sources) {
				t.Fatalf("round trip changed %v", e.Triple)
			}
		}
	})
}

// FuzzJSONLToBinary is the cross-format oracle: any store the JSONL
// reader accepts must convert to a binary snapshot and back without
// losing an entry, a source, a label, or a bit of probability.
func FuzzJSONLToBinary(f *testing.F) {
	f.Add([]byte(`{"subject":"s","predicate":"p","object":"o","sources":["a","b"],"label":"true","probability":0.25,"accepted":true}`))
	f.Add([]byte("{\"subject\":\"s\",\"predicate\":\"p\",\"object\":\"o\"}\n{\"subject\":\"t\",\"predicate\":\"p\",\"object\":\"o\",\"sources\":[\"x\"]}\n"))
	f.Add([]byte(`{"subject":"uni \u00e9","predicate":"p\tq","object":"\ud83d\ude00","sources":["\u0000"],"probability":5e-324}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		if err := s.Read(bytes.NewReader(data)); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			t.Fatalf("JSONL-accepted store failed binary encode: %v", err)
		}
		got, err := loadBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("binary round trip rejected: %v", err)
		}
		sameEntries(t, s, got)
	})
}
