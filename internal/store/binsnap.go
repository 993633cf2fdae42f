package store

// The CFSN binary snapshot: a versioned, CRC-footed, mmap-able image of
// the store. Where the JSONL file is the durable interchange format —
// human-greppable, append-merged by Read — the binary snapshot is the
// cold-start format: fixed-width entry records over a deduplicated string
// arena and the frozen fusion score/decision per entry, so startup is
// mmap + header/CRC validation + table fill instead of a reflective parse
// of every line. It holds the entries in store order and nothing derived
// from them: ranked listings belong to internal/index, which is rebuilt
// from the fused model at every boot anyway.
//
// On-disk layout (little-endian throughout):
//
//	header (40 B)  magic "CFSN", format version, section counts
//	arena          concatenated bytes of every distinct string
//	strtab         nStrings × {off u64, len u32}   (into arena)
//	entries        nEntries × 40 B fixed records (see below)
//	refs           nRefs × u32                    (string idx, source lists)
//	footer         crc32(IEEE) over everything above, u32
//
// Entry record (40 B): subject u32, predicate u32, object u32, label u32
// (string indices; "" is always index 0), srcOff u32, srcLen u32 (into
// refs), probability f64 bits, flags u64 (bit 0 = accepted).
//
// Identical data always serializes identically, and a binary-loaded store
// equals the JSONL-loaded one field for field.
//
// This is format version 2. Version 1 also carried three postings
// sections; there is no v1 reader — a v1 image is refused like any other
// invalid snapshot ("unsupported format version 1"), the JSONL store next
// to it loads instead, and the next persist replaces it with a v2 image.
//
// Every section offset and index is bounds-checked at load: a torn,
// truncated or bit-flipped file fails loudly (almost always at the CRC,
// but never with a panic), and LoadPreferred falls back to the JSONL
// store next to it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"
	"unsafe"

	"corrfuse/internal/triple"
)

const (
	binMagic     = "CFSN"
	binVersion   = 2
	binHeaderLen = 40
	entryRecLen  = 40
	strRecLen    = 12
	flagAccepted = 1 << 0
)

// ErrBadSnapshot wraps every binary-snapshot validation failure, letting
// callers distinguish "corrupt/unreadable snapshot, fall back" from I/O
// errors like a missing file.
var ErrBadSnapshot = errors.New("invalid binary snapshot")

func badSnapshot(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// BinaryPath returns the conventional binary-snapshot path next to a
// JSONL store path.
func BinaryPath(path string) string { return path + ".cfsn" }

// arenaString views the arena bytes as a string without copying. The
// mapping (or heap copy) backing it must outlive every string sliced
// from it — which LoadBinary guarantees by never unmapping a snapshot
// that validated.
func arenaString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// intern deduplicates strings into the arena during WriteBinary.
type intern struct {
	idx     map[string]uint32
	strs    []string
	bytes   uint64
	longest int
}

func newIntern() *intern {
	in := &intern{idx: make(map[string]uint32)}
	in.of("") // "" is always index 0 (absent labels)
	return in
}

// of returns s's index. Past MaxUint32 strings the index wraps; WriteBinary
// checks binLimits before it emits one.
func (in *intern) of(s string) uint32 {
	if i, ok := in.idx[s]; ok {
		return i
	}
	i := uint32(len(in.strs))
	in.idx[s] = i
	in.strs = append(in.strs, s)
	in.bytes += uint64(len(s))
	in.longest = max(in.longest, len(s))
	return i
}

// binLimits reports the first count a CFSN image's u32 fields cannot hold:
// the entry count, string indices, source-ref offsets and string lengths.
// A wrapped value would still pass the CRC and load the wrong strings.
func binLimits(entries, strs, refs, longest uint64) error {
	for _, c := range [...]struct {
		n    uint64
		what string
	}{{entries, "entries"}, {strs, "distinct strings"}, {refs, "source refs"}, {longest, "bytes in one string"}} {
		if c.n > math.MaxUint32 {
			return fmt.Errorf("store: %d %s exceed the binary snapshot's u32 space", c.n, c.what)
		}
	}
	return nil
}

// WriteBinary streams the store as a CFSN binary snapshot. One pass interns
// every string and records each entry's four string indices and its source
// refs; the second emits the image from those records through one buffer.
func (s *Store) WriteBinary(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()

	nRefs := 0
	for i := range s.entries {
		nRefs += len(s.entries[i].Sources)
	}
	in := newIntern()
	strIdx := make([][4]uint32, len(s.entries)) // subject, predicate, object, label
	refs := make([]uint32, 0, nRefs)
	for i := range s.entries {
		e := &s.entries[i]
		strIdx[i] = [4]uint32{in.of(e.Triple.Subject), in.of(e.Triple.Predicate), in.of(e.Triple.Object), in.of(e.Label)}
		for _, src := range e.Sources {
			refs = append(refs, in.of(src))
		}
	}
	if err := binLimits(uint64(len(s.entries)), uint64(len(in.strs)), uint64(nRefs), uint64(in.longest)); err != nil {
		return err
	}

	bw := newBinWriter(w)
	var hdr [binHeaderLen]byte
	copy(hdr[0:4], binMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], binVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(s.entries)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(in.strs)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(nRefs))
	binary.LittleEndian.PutUint64(hdr[32:40], in.bytes)
	bw.str(string(hdr[:]))

	// Arena and string table.
	for _, str := range in.strs {
		bw.str(str)
	}
	var off uint64
	for _, str := range in.strs {
		bw.u64(off)
		bw.u32(uint32(len(str)))
		off += uint64(len(str))
	}

	// Entry records, then the concatenated source-ref lists.
	var srcOff uint32
	for i := range s.entries {
		e := &s.entries[i]
		for _, si := range strIdx[i] {
			bw.u32(si)
		}
		bw.u32(srcOff)
		bw.u32(uint32(len(e.Sources)))
		srcOff += uint32(len(e.Sources))
		bw.u64(math.Float64bits(e.Probability))
		var flags uint64
		if e.Accepted {
			flags |= flagAccepted
		}
		bw.u64(flags)
	}
	for _, si := range refs {
		bw.u32(si)
	}

	if err := bw.finish(); err != nil {
		return fmt.Errorf("store: write binary snapshot: %w", err)
	}
	return nil
}

// binBufLen is the size of every write binWriter makes but the last.
const binBufLen = 1 << 16

// binWriter streams an image through one buffer, folding each flushed byte
// into the CRC the footer carries, with sticky error handling.
type binWriter struct {
	w   io.Writer
	crc uint32
	buf []byte
	err error
}

func newBinWriter(w io.Writer) *binWriter {
	// The slack holds what a fixed-width append carries past binBufLen.
	return &binWriter{w: w, buf: make([]byte, 0, binBufLen+8)}
}

func (b *binWriter) emit(p []byte) {
	if b.err == nil {
		b.crc = crc32.Update(b.crc, crc32.IEEETable, p)
		_, b.err = b.w.Write(p)
	}
}

// flushIfFull writes a full buffer out, binBufLen bytes exactly, and keeps
// the rest.
func (b *binWriter) flushIfFull() {
	if len(b.buf) < binBufLen {
		return
	}
	b.emit(b.buf[:binBufLen])
	b.buf = b.buf[:copy(b.buf, b.buf[binBufLen:])]
}

// str appends s, flushing each time the buffer fills.
func (b *binWriter) str(s string) {
	for len(s) > 0 {
		n := copy(b.buf[len(b.buf):binBufLen], s)
		b.buf = b.buf[:len(b.buf)+n]
		s = s[n:]
		b.flushIfFull()
	}
}

func (b *binWriter) u32(v uint32) {
	b.buf = binary.LittleEndian.AppendUint32(b.buf, v)
	b.flushIfFull()
}

func (b *binWriter) u64(v uint64) {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, v)
	b.flushIfFull()
}

// finish appends the footer, the CRC of everything before it, and writes
// what the buffer holds.
func (b *binWriter) finish() error {
	b.crc = crc32.Update(b.crc, crc32.IEEETable, b.buf)
	b.buf = binary.LittleEndian.AppendUint32(b.buf, b.crc)
	if b.err == nil {
		_, b.err = b.w.Write(b.buf)
	}
	return b.err
}

// SaveBinary writes the binary snapshot to a file with the same
// crash-atomicity discipline as Save: temp file in the same directory,
// fsync, rename, directory fsync.
func (s *Store) SaveBinary(path string) error {
	return writeFileAtomic(path, ".store-*.cfsn", s.WriteBinary)
}

// LoadBinary loads a CFSN binary snapshot, memory-mapping it where the
// platform supports it. String data is served zero-copy out of the
// mapping, which therefore intentionally stays mapped for the life of
// the process (the Store has no close; a validation failure unmaps).
// Errors from a structurally invalid file wrap ErrBadSnapshot.
func LoadBinary(path string) (*Store, LoadInfo, error) {
	start := time.Now()
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, LoadInfo{}, err
	}
	st, err := loadBinary(data)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, LoadInfo{}, fmt.Errorf("store: %s: %w", path, err)
	}
	return st, LoadInfo{Format: FormatBinary, Bytes: int64(len(data)), Mapped: mapped, Duration: time.Since(start)}, nil
}

// loadBinary reconstructs a Store from the raw snapshot image. data is
// untrusted: every offset, count and index is validated before use.
func loadBinary(data []byte) (*Store, error) {
	if len(data) < binHeaderLen+4 {
		return nil, badSnapshot("file too short (%d bytes)", len(data))
	}
	if string(data[0:4]) != binMagic {
		return nil, badSnapshot("bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != binVersion {
		return nil, badSnapshot("unsupported format version %d", v)
	}
	nEntries := binary.LittleEndian.Uint64(data[8:16])
	nStrings := binary.LittleEndian.Uint64(data[16:24])
	nRefs := binary.LittleEndian.Uint64(data[24:32])
	arenaLen := binary.LittleEndian.Uint64(data[32:40])

	// Reject absurd counts before any size arithmetic can overflow.
	const maxCount = 1 << 40
	for _, c := range []uint64{nEntries, nStrings, nRefs, arenaLen} {
		if c > maxCount {
			return nil, badSnapshot("implausible section count %d", c)
		}
	}
	arenaOff := uint64(binHeaderLen)
	strTabOff := arenaOff + arenaLen
	entriesOff := strTabOff + nStrings*strRecLen
	refsOff := entriesOff + nEntries*entryRecLen
	footerOff := refsOff + nRefs*4
	if want := footerOff + 4; want != uint64(len(data)) {
		return nil, badSnapshot("file is %d bytes, layout wants %d", len(data), want)
	}
	// CRC before trusting any section content.
	wantCRC := binary.LittleEndian.Uint32(data[footerOff:])
	if got := crc32.ChecksumIEEE(data[:footerOff]); got != wantCRC {
		return nil, badSnapshot("CRC mismatch: file says %08x, content is %08x", wantCRC, got)
	}

	// Strings: one zero-copy view over the arena; every table entry is a
	// substring of it.
	arena := arenaString(data[arenaOff:strTabOff])
	strs := make([]string, nStrings)
	for i := uint64(0); i < nStrings; i++ {
		rec := data[strTabOff+i*strRecLen:]
		off := binary.LittleEndian.Uint64(rec[0:8])
		n := uint64(binary.LittleEndian.Uint32(rec[8:12]))
		if off+n > arenaLen || off+n < off {
			return nil, badSnapshot("string %d spans [%d,%d) outside the %d-byte arena", i, off, off+n, arenaLen)
		}
		strs[i] = arena[off : off+n]
	}
	if nEntries > 0 && (nStrings == 0 || strs[0] != "") {
		return nil, badSnapshot("string table must start with the empty string")
	}

	st := &Store{
		entries: make([]Entry, nEntries),
		byKey:   make(map[triple.Triple]int, nEntries),
	}
	str := func(i uint32, what string) (string, error) {
		if uint64(i) >= nStrings {
			return "", badSnapshot("%s string index %d out of range (%d strings)", what, i, nStrings)
		}
		return strs[i], nil
	}

	// One backing array for every source list: nEntries slices without
	// nEntries allocations.
	refBacking := make([]string, nRefs)
	for i := uint64(0); i < nRefs; i++ {
		si := binary.LittleEndian.Uint32(data[refsOff+i*4:])
		s, err := str(si, "source ref")
		if err != nil {
			return nil, err
		}
		refBacking[i] = s
	}
	for i := uint64(0); i < nEntries; i++ {
		rec := data[entriesOff+i*entryRecLen:]
		var e Entry
		var err error
		if e.Triple.Subject, err = str(binary.LittleEndian.Uint32(rec[0:4]), "subject"); err != nil {
			return nil, err
		}
		if e.Triple.Predicate, err = str(binary.LittleEndian.Uint32(rec[4:8]), "predicate"); err != nil {
			return nil, err
		}
		if e.Triple.Object, err = str(binary.LittleEndian.Uint32(rec[8:12]), "object"); err != nil {
			return nil, err
		}
		if e.Label, err = str(binary.LittleEndian.Uint32(rec[12:16]), "label"); err != nil {
			return nil, err
		}
		srcOff := uint64(binary.LittleEndian.Uint32(rec[16:20]))
		srcLen := uint64(binary.LittleEndian.Uint32(rec[20:24]))
		if srcOff+srcLen > nRefs {
			return nil, badSnapshot("entry %d source list [%d,%d) outside %d refs", i, srcOff, srcOff+srcLen, nRefs)
		}
		if srcLen > 0 {
			e.Sources = refBacking[srcOff : srcOff+srcLen : srcOff+srcLen]
		}
		e.Probability = math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32]))
		e.Accepted = binary.LittleEndian.Uint64(rec[32:40])&flagAccepted != 0
		st.entries[i] = e
		if _, dup := st.byKey[e.Triple]; dup {
			return nil, badSnapshot("duplicate triple at entry %d", i)
		}
		st.byKey[e.Triple] = int(i)
	}

	// Match a JSONL load's version arithmetic: one bump per entry.
	st.version = nEntries
	return st, nil
}

// LoadInfo describes how a store was loaded. serve exposes it on /healthz
// and as the corrfused_snapshot_load_* metric families.
type LoadInfo struct {
	// Format is FormatBinary (the CFSN snapshot) or FormatJSONL.
	Format string
	// Bytes is the size of the file the store was loaded from.
	Bytes int64
	// Mapped reports a binary load served zero-copy from an mmap (the
	// mapping stays alive for the life of the process) rather than a heap
	// copy.
	Mapped bool
	// Duration is the wall time of the load (the cold-start cost).
	Duration time.Duration
	// FallbackReason is non-empty when a binary snapshot existed but was
	// rejected (CRC/validation failure) and the JSONL store was loaded
	// instead — loud enough to alert on, harmless to serve through.
	FallbackReason string
}

// LoadInfo.Format values.
const (
	FormatBinary = "binary"
	FormatJSONL  = "jsonl"
)

// LoadPreferred loads the store for a JSONL path, preferring the binary
// snapshot next to it (BinaryPath) and falling back to the JSONL file
// when the snapshot is missing or fails validation. A corrupt snapshot
// never serves: it is reported in LoadInfo.FallbackReason and skipped.
func LoadPreferred(path string) (*Store, LoadInfo, error) {
	start := time.Now()
	st, info, err := LoadBinary(BinaryPath(path))
	if err == nil {
		return st, info, nil
	}
	info = LoadInfo{Format: FormatJSONL}
	if !os.IsNotExist(err) {
		info.FallbackReason = err.Error()
	}
	st, err = Load(path)
	if err != nil {
		return nil, info, err
	}
	if fi, statErr := os.Stat(path); statErr == nil {
		info.Bytes = fi.Size()
	}
	info.Duration = time.Since(start)
	return st, info, nil
}
