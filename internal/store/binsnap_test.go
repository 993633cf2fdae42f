package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// sameEntries asserts a and b hold the same entries in the same order
// (probability compared bit-exactly) under the same key index.
func sameEntries(t *testing.T, a, b *Store) {
	t.Helper()
	if len(a.entries) != len(b.entries) {
		t.Fatalf("Len mismatch: %d vs %d", len(a.entries), len(b.entries))
	}
	for i, e := range a.entries {
		got := b.entries[i]
		if math.Float64bits(got.Probability) != math.Float64bits(e.Probability) {
			t.Fatalf("%v probability changed: %x vs %x", e.Triple,
				math.Float64bits(e.Probability), math.Float64bits(got.Probability))
		}
		got.Probability, e.Probability = 0, 0
		if len(got.Sources) == 0 && len(e.Sources) == 0 {
			got.Sources, e.Sources = nil, nil
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("entry %d changed:\n  before %+v\n  after  %+v", i, e, got)
		}
	}
	if !reflect.DeepEqual(a.byKey, b.byKey) {
		t.Fatal("key index differs")
	}
	// No version comparison here: SetFusion interns entries without
	// advancing the version, so any reload — JSONL or binary — can land
	// on a different count than the live store it was saved from.
	// TestBinaryVersionMatchesJSONLLoad pins the invariant that matters.
}

// v1Image is a well-formed version-1 snapshot of an empty store: the old
// 72-byte header (magic, version, eight zero section counts) and its CRC.
func v1Image() []byte {
	img := make([]byte, 72, 76)
	copy(img, binMagic)
	binary.LittleEndian.PutUint32(img[4:8], 1)
	return binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
}

// TestBinaryVersionMatchesJSONLLoad: a binary load must produce the store
// a JSONL load of the same data would — every field, including the data
// version, so downstream version-compare logic (the refresher) behaves
// identically whichever format served the cold start.
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
	sameEntries(t, viaJSONL, viaBinary)
	if viaBinary.version != viaJSONL.version {
		t.Fatalf("binary load version %d, JSONL load version %d", viaBinary.version, viaJSONL.version)
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

// TestV1SnapshotFallsBackThenUpgrades: there is no v1 reader. A version-1
// image next to a valid JSONL store is refused by version, the JSONL store
// serves with the reason recorded, and the next persist leaves a v2 image.
func TestV1SnapshotFallsBackThenUpgrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s := snapStore()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(BinaryPath(path), v1Image(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, info, err := LoadPreferred(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != FormatJSONL || !strings.Contains(info.FallbackReason, "unsupported format version 1") {
		t.Fatalf("v1 snapshot: info = %+v", info)
	}
	sameEntries(t, s, got)

	if res, err := got.Persist(path); err != nil || res.SnapshotErr != nil {
		t.Fatalf("persist over a v1 image: %+v, %v", res, err)
	}
	raw, err := os.ReadFile(BinaryPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != 2 {
		t.Fatalf("persist left a version-%d image", v)
	}
	upgraded, info, err := LoadBinary(BinaryPath(path))
	if err != nil || info.Format != FormatBinary {
		t.Fatalf("upgraded image: %+v, %v", info, err)
	}
	sameEntries(t, s, upgraded)
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
	// One flipped bit in the middle of every section, located from the
	// header's own counts, then a sweep across the whole file.
	le := binary.LittleEndian
	arena := binHeaderLen
	strtab := arena + int(le.Uint64(good[32:40]))
	entries := strtab + int(le.Uint64(good[16:24]))*strRecLen
	refs := entries + int(le.Uint64(good[8:16]))*entryRecLen
	footer := refs + int(le.Uint64(good[24:32]))*4
	if footer+4 != len(good) {
		t.Fatalf("sections end at %d, file is %d bytes", footer+4, len(good))
	}
	flip := func(name string, i int) {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x01
		check(fmt.Sprintf("bitflip-%s-at-%d", name, i), bad)
	}
	bounds := []int{0, arena, strtab, entries, refs, footer, len(good)}
	for i, name := range []string{"header", "arena", "strtab", "entries", "refs", "footer"} {
		flip(name, (bounds[i]+bounds[i+1])/2)
	}
	for i := 0; i < len(good); i += len(good)/37 + 1 {
		flip("sweep", i)
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
	check("v1-image", v1Image())
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
	f.Add(v1Image())
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := loadBinary(data)
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint32(data[4:8]); v != binVersion {
			t.Fatalf("accepted a version-%d image", v)
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
