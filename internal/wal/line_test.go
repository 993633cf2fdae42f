package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"corrfuse/internal/codec"
)

// envelope is the line as encoding/json reads and writes it: the reference
// the hand-rolled line codec is held to.
type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// refDecodeLine is the line decoder the log used before internal/codec took
// it over: json.Unmarshal of the envelope into a fresh envelope, the CRC
// over the raw record bytes, json.Unmarshal of the record.
func refDecodeLine(raw []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return Record{}, fmt.Errorf("parse: %w", err)
	}
	if crc32.ChecksumIEEE(env.Rec) != env.CRC {
		return Record{}, fmt.Errorf("crc mismatch")
	}
	var rec Record
	if err := json.Unmarshal(env.Rec, &rec); err != nil {
		return Record{}, fmt.Errorf("record: %w", err)
	}
	if rec.Seq == 0 {
		return Record{}, fmt.Errorf("record without sequence number")
	}
	return rec, nil
}

// refLine is the line encoder the log used before: json.Marshal of the
// record, then of the envelope, then the newline.
func refLine(t testing.TB, r Record) []byte {
	t.Helper()
	rec, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(envelope{CRC: crc32.ChecksumIEEE(rec), Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// enveloped wraps record bytes in a line with their true CRC.
func enveloped(rec string) string {
	return fmt.Sprintf(`{"crc":%d,"rec":%s}`, crc32.ChecksumIEEE([]byte(rec)), rec)
}

// lineShapes are the lines the wal and ship tests build, and the edges of
// encoding/json's accepting set the line decoder must keep.
func lineShapes() []string {
	good := strings.TrimSuffix(string(appendLine(nil, appendRecord(nil, &Record{Seq: 7, Source: "src1", Subject: "s7", Predicate: "p", Object: "v"}))), "\n")
	crc := crc32.ChecksumIEEE([]byte(`{"seq":1}`))
	flipped := []byte(good)
	flipped[len(flipped)/2] ^= 0x40
	return []string{
		good,
		good[:len(good)-7], // torn
		"", " ", "\t\r ",   // blank
		string(flipped), // a flipped bit
		strings.Replace(good, `"crc":`, `"crc":1`, 1),                                  // tampered CRC
		enveloped(`{"seq":0,"source":"a","subject":"s","predicate":"p","object":"o"}`), // seq 0
		enveloped(`{"source":"a","subject":"s","predicate":"p","object":"o"}`),         // no seq
		fmt.Sprintf(`{"crc":%d,"rec":{"seq":1}}`, uint64(crc)+1<<32),                   // CRC above 2^32-1
		fmt.Sprintf(`{"crc":%d.0,"rec":{"seq":1}}`, crc),
		fmt.Sprintf(`{"crc":%de0,"rec":{"seq":1}}`, crc),
		fmt.Sprintf(`{"crc":-%d,"rec":{"seq":1}}`, crc),
		fmt.Sprintf(`{"crc":"%d","rec":{"seq":1}}`, crc),
		enveloped(`{"seq":18446744073709551615}`),
		enveloped(`{"seq":18446744073709551616}`),
		enveloped(`{"seq":1.5}`), enveloped(`{"seq":-1}`), enveloped(`{"seq":"1"}`), enveloped(`{"seq":true}`),
		// Case folding, escaped keys and the two non-ASCII runes that fold to ASCII.
		fmt.Sprintf(`{"CRC":%d,"Rec":{"SEQ":1,"Source":"a","sUbJeCt":"s","\u0070redicate":"p","obje\u212at":"o","labe\u017f":"x"}}`, crc32.ChecksumIEEE([]byte(`{"SEQ":1,"Source":"a","sUbJeCt":"s","\u0070redicate":"p","obje\u212at":"o","labe\u017f":"x"}`))),
		enveloped(`{"ſeq":2,"ſource":"a","\u017fubject":"s","objec\u212a":"o"}`),
		// Unknown keys, anywhere, holding any value.
		fmt.Sprintf(`{"x":[1,{"a":null},"s"],"crc":%d,"rec":{"seq":1},"y":{}}`, crc),
		enveloped(`{"seq":3,"extra":{"nested":[true,false,null,1e10,-0.5]},"source":"a"}`),
		// Duplicate keys: the last wins; null leaves a field as it was.
		enveloped(`{"seq":4,"seq":5,"source":"a","source":"b","label":"true","label":null}`),
		enveloped(`{"seq":4,"seq":null,"subject":null}`),
		fmt.Sprintf(`{"crc":%d,"crc":null,"rec":{"seq":1}}`, crc),
		fmt.Sprintf(`{"crc":1,"crc":%d,"rec":{"seq":"bad"},"rec":{"seq":1}}`, crc),
		fmt.Sprintf(`{"crc":%d,"rec":{"seq":1},"rec":null}`, crc),
		`{"crc":0,"rec":null}`, `{"crc":0}`, `{"rec":{"seq":1}}`, `null`, `[]`, `{}`, `"line"`, `7`,
		enveloped(`{"seq":1,"source":null,"subject":5}`),
		enveloped(`{"seq":1,"source":["a"]}`),
		enveloped(`"rec"`), enveloped(`[1]`), enveloped(`7`),
		// Strings: HTML-sensitive bytes, U+2028, escapes, invalid UTF-8.
		enveloped(`{"seq":6,"source":"<&>","subject":"a\u003cb\u0026c","predicate":"\u2028\u2029","object":"\ud83d\ude00 \ud800 \udc00x"}`),
		enveloped("{\"seq\":6,\"source\":\"\xff\xfe\",\"subject\":\"\xc3\",\"object\":\"\u2028\"}"),
		enveloped(`{"seq":6,"object":"\x"}`),
		enveloped("{\"seq\":6,\"object\":\"tab\there\"}"),
		// Whitespace around and inside; data after the document.
		" \t" + enveloped(` { "seq" : 8 , "source" : "a" } `) + " \r",
		good + "x", good + " {}", good + "}",
		`{"crc":1 "rec":{}}`, `{"crc":1,}`, `{"crc":01,"rec":{}}`, `{"crc":1,"rec":{"seq":1,}}`,
	}
}

// TestDecodeLineNestingLimit: encoding/json refuses more than 10000 open
// objects and arrays at once, counting the envelope; so does decodeLine.
func TestDecodeLineNestingLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999, 10000} {
		deep := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		for _, line := range []string{
			fmt.Sprintf(`{"crc":%d,"rec":{"seq":1},"x":%s}`, crc32.ChecksumIEEE([]byte(`{"seq":1}`)), deep),
			enveloped(`{"seq":1,"x":` + deep + `}`),
		} {
			checkDecodeLine(t, []byte(line))
		}
	}
}

// checkDecodeLine asserts that decodeLine errs exactly when the reference
// does and returns its Record otherwise — with and without an interner, and
// when only verifying.
func checkDecodeLine(t *testing.T, raw []byte) {
	t.Helper()
	want, wantErr := refDecodeLine(raw)
	for _, in := range []*codec.Interner{nil, new(codec.Interner)} {
		var got Record
		seq, err := decodeLine(raw, in, &got)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: decodeLine err = %v, encoding/json err = %v", raw, err, wantErr)
		}
		if err == nil && (got != want || seq != want.Seq) {
			t.Fatalf("%q: decodeLine = %d %+v, encoding/json = %+v", raw, seq, got, want)
		}
	}
	seq, err := decodeLine(raw, nil, nil)
	if (err != nil) != (wantErr != nil) || seq != want.Seq {
		t.Fatalf("%q: verifying gives %d, %v; encoding/json %+v, %v", raw, seq, err, want, wantErr)
	}
}

// FuzzWALLine holds decodeLine to the two-Unmarshal reference over arbitrary
// lines, and over every line shape as plain go test runs it.
func FuzzWALLine(f *testing.F) {
	for _, line := range lineShapes() {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecodeLine(t, raw)
	})
}

// recordShapes are records whose strings exercise every escape the encoder
// writes.
func recordShapes() []Record {
	nasty := []string{"plain", "<&>", "a<b>c&d", "\u2028 and \u2029", "bad utf8 \xff\xfe \xc3", "ctrl \x00\x01\x1f\x7f",
		"tab\tnl\ncr\rbs\bff\f", `quote " backslash \`, "é — \U0001F600", ""}
	var recs []Record
	for i, s := range nasty {
		recs = append(recs,
			Record{Seq: uint64(i + 1), Source: s, Subject: "s", Predicate: "p", Object: "o"},
			Record{Seq: 1 << 63, Source: "a", Subject: s, Predicate: s, Object: s, Label: s},
		)
	}
	return append(recs, Record{}, Record{Seq: ^uint64(0), Label: "false"})
}

// FuzzWALAppend holds the line encoder to json.Marshal: the line Append
// writes is the envelope encoding/json wrote, byte for byte, and it decodes
// to what the reference decodes it to.
func FuzzWALAppend(f *testing.F) {
	for _, r := range recordShapes() {
		f.Add(r.Seq, r.Source, r.Subject, r.Predicate, r.Object, r.Label)
	}
	f.Fuzz(func(t *testing.T, seq uint64, source, subject, predicate, object, label string) {
		r := Record{Seq: seq, Source: source, Subject: subject, Predicate: predicate, Object: object, Label: label}
		got := appendLine([]byte("kept"), appendRecord(nil, &r))
		want := refLine(t, r)
		if string(got[:4]) != "kept" || !bytes.Equal(got[4:], want) {
			t.Fatalf("%+v:\n  append %s  json   %s", r, got[4:], want)
		}
		checkDecodeLine(t, want[:len(want)-1])
	})
}

// TestReferenceSegmentReplays: a segment the json.Marshal encoder wrote
// replays to the Records the reference decoder reads from it, and Append
// writes the same file.
func TestReferenceSegmentReplays(t *testing.T) {
	var seg []byte
	var want []Record
	for i, r := range recordShapes()[:20] {
		r.Seq = uint64(i + 1)
		line := refLine(t, r)
		seg = append(seg, line...)
		ref, err := refDecodeLine(line[:len(line)-1])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ref)
	}
	dir := t.TempDir()
	if err := os.WriteFile(segmentFile(dir, 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	w, got := mustOpen(t, dir, Options{})
	w.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay:\n  got  %+v\n  want %+v", got, want)
	}

	dir2 := t.TempDir()
	w2, _ := mustOpen(t, dir2, Options{})
	for _, r := range recordShapes()[:20] {
		if _, err := w2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(segmentFile(dir2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, seg) {
		t.Fatalf("Append wrote\n%s\nencoding/json wrote\n%s", written, seg)
	}
}

// TestAppendAllocatesNothing: once its scratch buffer has grown, Append
// encodes and buffers a record without allocating (encoding/json cost 4
// allocations a record).
func TestAppendAllocatesNothing(t *testing.T) {
	w, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncOff})
	defer w.Close()
	r := Record{Source: "src<1>", Subject: "subject-000001", Predicate: "value", Object: "v&1", Label: "true"}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Append allocates %v times a record, want 0", allocs)
	}
}

// TestAppendShippedAllocatesNothing: a follower's verbatim append verifies
// the line without building its record and copies it straight into the
// buffered writer.
func TestAppendShippedAllocatesNothing(t *testing.T) {
	const n = 300
	var raws [][]byte
	for i := 1; i <= n; i++ {
		line := appendLine(nil, appendRecord(nil, &Record{Seq: uint64(i), Source: "src1", Subject: fmt.Sprintf("s%d", i), Predicate: "p", Object: "v"}))
		raws = append(raws, line[:len(line)-1])
	}
	w, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncOff})
	defer w.Close()
	next := 0
	if allocs := testing.AllocsPerRun(n-1, func() {
		if _, err := w.AppendShipped(raws[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 0 {
		t.Fatalf("AppendShipped allocates %v times a line, want 0", allocs)
	}
}

// replayAllocsPerRecord is what replay allocates for each record: its
// subject string. Source, predicate, object and label repeat and are
// interned; the records slice grows by doubling, which adds O(log n).
const replayAllocsPerRecord = 1

// TestReplayAllocationsPerRecord: Open's allocations grow by
// replayAllocsPerRecord a record, plus the few growths of the records slice
// (encoding/json cost 15 a record).
func TestReplayAllocationsPerRecord(t *testing.T) {
	replayAllocs := func(n int) float64 {
		dir := t.TempDir()
		w, _ := mustOpen(t, dir, Options{Sync: SyncOff})
		for i := 0; i < n; i++ {
			if _, err := w.Append(Record{Source: fmt.Sprintf("src%d", i%12), Subject: fmt.Sprintf("item-%06d", i), Predicate: "value", Object: fmt.Sprintf("v%d", i%7)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			w, recs, err := Open(dir, Options{Sync: SyncOff})
			if err != nil || len(recs) != n {
				t.Fatalf("replayed %d records, want %d (err %v)", len(recs), n, err)
			}
			w.Close()
		})
	}
	const n = 2000
	small, large := replayAllocs(n), replayAllocs(2*n)
	if perRecord := (large - small) / n; perRecord > replayAllocsPerRecord+0.01 {
		t.Fatalf("replay allocates %.3f times a record (%v for %d records, %v for %d), want %d", perRecord, small, n, large, 2*n, replayAllocsPerRecord)
	}
}

// TestLongLineReplays: a line longer than the scanner's read buffer is
// gathered whole, in the middle of a segment as at its end.
func TestLongLineReplays(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	big := strings.Repeat("<long>", 30<<10)
	for i := 0; i < 3; i++ {
		appendCommit(t, w, Record{Source: "a", Subject: fmt.Sprintf("s%d", i), Predicate: "p", Object: big})
	}
	w.Close()
	w2, recs := mustOpen(t, dir, Options{})
	defer w2.Close()
	if len(recs) != 3 || recs[2].Object != big || recs[2].Seq != 3 {
		t.Fatalf("replayed %d records", len(recs))
	}
}
