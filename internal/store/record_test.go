package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"corrfuse/internal/codec"
)

const goodLine = `{"subject":"s","predicate":"p","object":"o","sources":["a","b"],"label":"true","probability":0.5,"accepted":true}`

// TestStrictCodecRejections: every way a line can miss the schema is a
// "line N:" error naming the offending key — never a partially filled
// record. Each case is the third line of a stream whose first two are fine.
func TestStrictCodecRejections(t *testing.T) {
	cases := []struct {
		name, line, want string
	}{
		{"old nested dialect", `{"triple":{"Subject":"s","Predicate":"p","Object":"o"},"sources":["a"]}`, `"triple"`},
		{"unknown key", `{"subject":"s","predicate":"p","object":"o","extra":{"nested":[1,2,3]}}`, `"extra"`},
		{"case-folded key", `{"Subject":"s","predicate":"p","object":"o"}`, `"Subject"`},
		{"duplicate key", `{"subject":"s","predicate":"p","object":"o","subject":"s2"}`, `duplicate key "subject"`},
		{"duplicate via escape", `{"label":"true","subject":"s","predicate":"p","object":"o","\u006cabel":"false"}`, `duplicate key "label"`},
		{"empty subject", `{"subject":"","predicate":"p","object":"o"}`, `"subject"`},
		{"missing predicate", `{"subject":"s","object":"o"}`, `"predicate"`},
		{"empty object", `{"subject":"s","predicate":"p","object":""}`, `"object"`},
		{"empty object literal", `{}`, `"subject"`},
		{"empty source", `{"subject":"s","predicate":"p","object":"o","sources":["a",""]}`, `"sources"`},
		{"sources not an array", `{"subject":"s","predicate":"p","object":"o","sources":"a"}`, `"sources"`},
		{"null subject", `{"subject":null,"predicate":"p","object":"o"}`, `"subject"`},
		{"label outside the set", `{"subject":"s","predicate":"p","object":"o","label":"maybe"}`, `"label"`},
		{"label wrong type", `{"subject":"s","predicate":"p","object":"o","label":true}`, `"label"`},
		{"probability above 1", `{"subject":"s","predicate":"p","object":"o","probability":1.5}`, `"probability"`},
		{"probability negative", `{"subject":"s","predicate":"p","object":"o","probability":-0.1}`, `"probability"`},
		{"probability overflows", `{"subject":"s","predicate":"p","object":"o","probability":1e999}`, `"probability"`},
		{"probability not JSON", `{"subject":"s","predicate":"p","object":"o","probability":.5}`, `"probability"`},
		{"probability a string", `{"subject":"s","predicate":"p","object":"o","probability":"0.5"}`, `"probability"`},
		{"accepted not a bool", `{"subject":"s","predicate":"p","object":"o","accepted":1}`, `"accepted"`},
		{"bad escape", `{"subject":"s\q","predicate":"p","object":"o"}`, `"subject"`},
		{"trailing bytes", goodLine + ` x`, `trailing data`},
		{"second record on the line", goodLine + goodLine, `trailing data`},
		{"trailing comma", `{"subject":"s","predicate":"p","object":"o",}`, `byte 44: expected`},
		{"truncated", `{"subject":"s","predicate":`, `"predicate"`},
		{"not an object", `["s","p","o"]`, `expected "{"`},
		{"over-long line", `{"subject":"` + strings.Repeat("x", maxLineBytes) + `","predicate":"p","object":"o"}`, fmt.Sprintf("longer than %d bytes", maxLineBytes)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			err := s.Read(strings.NewReader(goodLine + "\n\n" + tc.line + "\n"))
			if err == nil {
				t.Fatalf("accepted %s (store now holds %d entries)", tc.line, s.Len())
			}
			if msg := err.Error(); !strings.Contains(msg, "line 3:") || !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q: want \"line 3:\" and %s", msg, tc.want)
			}
		})
	}
}

// TestLongestLineAccepted: maxLineBytes is the last length that loads, with
// or without a newline after it.
func TestLongestLineAccepted(t *testing.T) {
	const frame = `{"subject":"","predicate":"p","object":"o"}`
	line := `{"subject":"` + strings.Repeat("x", maxLineBytes-len(frame)) + `","predicate":"p","object":"o"}`
	for _, tail := range []string{"", "\n"} {
		s := New()
		if err := s.Read(strings.NewReader(goodLine + "\n" + line + tail)); err != nil || s.Len() != 2 {
			t.Fatalf("a %d-byte line (tail %q): %v, %d entries", len(line), tail, err, s.Len())
		}
		err := s.Read(strings.NewReader(goodLine + "\n " + line + tail))
		if err == nil || !strings.Contains(err.Error(), "line 2: longer than") {
			t.Fatalf("a %d-byte line (tail %q): %v", len(line)+1, tail, err)
		}
	}
}

// strictLines are lines the strict decoder accepts.
var strictLines = []string{
	goodLine,
	`{"subject":"s","predicate":"p","object":"o"}`,
	` { "object" : "o" , "predicate" : "p" , "subject" : "s" , "sources" : [ ] } `,
	`{"subject":"s","predicate":"p","object":"o","sources":null,"label":"true"}`, // datagen before the schemas merged
	"{\"subject\":\"s\",\"predicate\":\"p\",\"object\":\"o\",\t\"sources\" : [ \"a\" ,\r \"b\" ] }",
	`{"subject":"uni \u00e9 é","predicate":"p\tq\\\"","object":"\ud83d\ude00 \ud800","sources":["<&>"],"label":"false"}`,
	`{"subject":"s","predicate":"p","object":"o","probability":5e-324,"accepted":false}`,
	`{"subject":"s","predicate":"p","object":"o","probability":1.0E+0}`,
	"{\"subject\":\"bad utf8 \xff\",\"predicate\":\"p\",\"object\":\"o\"}",
}

// TestStrictCodecAgreesWithEncodingJSON: on every line the strict decoder
// accepts, it yields exactly what encoding/json would — strictness narrows
// the accepted set, it never reinterprets a value.
func TestStrictCodecAgreesWithEncodingJSON(t *testing.T) {
	for _, line := range strictLines {
		var got, want Record
		if err := decodeRecord([]byte(line), &got, nil); err != nil {
			t.Errorf("%s: %v", line, err)
			continue
		}
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("%s: encoding/json: %v", line, err)
		}
		if len(want.Sources) == 0 {
			want.Sources = nil // the strict decoder normalizes [] to absent
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n  strict %+v\n  json   %+v", line, got, want)
		}
	}
}

// TestWriteRefusesWhatReadWould: the writer applies the reader's value
// rules, so a persist can never produce a file the next boot refuses.
func TestWriteRefusesWhatReadWould(t *testing.T) {
	s := New()
	s.Put(Entry{Triple: mk("s", "p", "o"), Sources: []string{"a"}})
	s.Put(Entry{Triple: mk("s", "p", ""), Sources: []string{"a"}})
	var buf bytes.Buffer
	err := s.Write(&buf)
	if err == nil || !strings.Contains(err.Error(), "record 1") || !strings.Contains(err.Error(), `"object"`) {
		t.Fatalf("Write of an empty-object entry: %v", err)
	}
}

// TestInternedDecodeEqualsFresh: decoding through an Interner — empty, or
// already holding every value of the line — yields the record, the error
// text and the error offset of the plain String path, on accepted lines and
// on rejected ones, with escapes, non-ASCII bytes and repeated keys.
func TestInternedDecodeEqualsFresh(t *testing.T) {
	lines := append([]string{
		`{"subject":"s","predicate":"p\u0041","object":"é","sources":["a","a","\u0061","b\n"],"label":"true"}`,
		`{"subject":"s","predicate":"p","predicate":"p","object":"o"}`,
		`{"subject":"s","predicate":"p","object":"o","sources":["a","b"],"sources":["a"]}`,
		`{"subject":"s","predicate":"p","object":"o","label":"true","label":"true"}`,
		`{"subject":"s","predicate":"p","object":"o","sources":["a","b\q"]}`,
		`{"subject":"s","predicate":"p","object":"o","sources":["a","unterminated]}`,
		"{\"subject\":\"s\",\"predicate\":\"p\",\"object\":\"ctrl \x01\"}",
		`{"subject":"s","predicate":"p","object":"o","sources":["a",7]}`,
		`{"subject":"s","predicate":"p","object":"o","label":"maybe"}`,
	}, strictLines...)
	var warm codec.Interner
	for pass := 0; pass < 2; pass++ { // the second pass finds every plain value in warm
		for _, line := range lines {
			var want Record
			wantErr := decodeRecord([]byte(line), &want, nil)
			for _, in := range []*codec.Interner{new(codec.Interner), &warm} {
				var got Record
				err := decodeRecord([]byte(line), &got, in)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("%s: error %v, want %v", line, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n  interned %+v\n  fresh    %+v", line, got, want)
				}
			}
		}
	}
}

// refEncode is the writer WriteRecords replaced, kept as its reference: the
// reflective encoder with its defaults (HTML escaping on).
func refEncode(t testing.TB, rec *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// TestAppendRecordMatchesEncodingJSON: every line WriteRecords emits is the
// line encoding/json would have emitted, byte for byte.
func TestAppendRecordMatchesEncodingJSON(t *testing.T) {
	nasty := []string{
		"plain", "<&>", "a<b>c&d", "<", "&&&&", "tail>", "\u2028 and \u2029", "bad utf8 \xff\xfe \xc3",
		"ctrl \x00\x01\x1f\x7f", "tab\tnl\ncr\rbs\bff\f", `quote " backslash \`, "é — \U0001F600", "<\xff&\u2028>", "",
	}
	var recs []Record
	for _, s := range nasty {
		recs = append(recs,
			Record{Subject: s, Predicate: "p", Object: "o"},
			Record{Subject: "s", Predicate: s, Object: "o", Sources: []string{s}},
			Record{Subject: "s", Predicate: "p", Object: s, Sources: []string{"a", s, "b"}, Label: s},
		)
	}
	for _, p := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1, 0.1 + 0.2, 0.5, 1.0 / 3, 1e21} {
		recs = append(recs,
			Record{Subject: "s", Predicate: "p", Object: "o", Probability: p},
			Record{Subject: "s", Predicate: "p", Object: "o", Sources: []string{}, Label: "false", Probability: p, Accepted: true},
		)
	}
	recs = append(recs, Record{}, Record{Subject: "s", Predicate: "p", Object: "o", Sources: []string{}, Accepted: false})
	buf := []byte("kept")
	for i := range recs {
		want := refEncode(t, &recs[i])
		buf = appendRecord(buf[:4], &recs[i])
		if string(buf[4:]) != string(want) || string(buf[:4]) != "kept" {
			t.Errorf("%+v:\n  append %s  json   %s", recs[i], buf, want)
		}
	}
}

// FuzzAppendRecord holds appendRecord to encoding/json over arbitrary field
// bytes, valid records or not (the value rules are validate's, not the
// encoder's). A non-finite probability is the one input encoding/json cannot
// write; validate refuses it before the encoder sees it.
func FuzzAppendRecord(f *testing.F) {
	f.Add("s", "p", "o", "a", "b", uint8(2), "true", 0.5, true)
	f.Add("<&>", "\u2028", "\xff", "", "&", uint8(3), "", 0.0, false)
	f.Add("ctrl\x00\x1f", "q\"\\", "é\U0001F600", "<", ">", uint8(1), "false", 5e-324, false)
	f.Add("s", "p", "o", "", "", uint8(0), "maybe", 1e-7, true)
	f.Fuzz(func(t *testing.T, subject, predicate, object, srcA, srcB string, nSources uint8, label string, prob float64, accepted bool) {
		if math.IsNaN(prob) || math.IsInf(prob, 0) {
			t.Skip()
		}
		rec := Record{Subject: subject, Predicate: predicate, Object: object, Label: label, Probability: prob, Accepted: accepted}
		for i := 0; i < int(nSources%5); i++ {
			rec.Sources = append(rec.Sources, []string{srcA, srcB}[i%2])
		}
		if got, want := appendRecord(nil, &rec), refEncode(t, &rec); string(got) != string(want) {
			t.Fatalf("%+v:\n  append %s  json   %s", rec, got, want)
		}
	})
}

// TestStoreWriteAllocatesNothingPerEntry: Store.Write's fill callback
// allocates nothing, so this isolates the encoder — a fixed set-up (the
// chunk buffer, the record, the callback) and then nothing per entry. The
// parent commit's encoding/json writer measured 3 allocations at either
// size here too (it pools its state): the append encoder is cheaper per
// byte, and must not pay for that in garbage.
func TestStoreWriteAllocatesNothingPerEntry(t *testing.T) {
	writeAllocs := func(entries int) float64 {
		s := New()
		for i := 0; i < entries; i++ {
			s.Put(Entry{
				Triple:  mk(fmt.Sprintf("fact-%06d", i), "value", "correct"),
				Sources: []string{"S1", "S10", "S3", "S7"}, Label: "true", Probability: 0.25 + float64(i%100)/200, Accepted: i%3 == 0,
			})
		}
		return testing.AllocsPerRun(5, func() {
			if err := s.Write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := writeAllocs(10), writeAllocs(2000)
	if large != small || small > 3 {
		t.Fatalf("Store.Write allocates %v times for 10 entries and %v for 2000; want the same fixed set-up (<= 3) for both", small, large)
	}
}

// TestWriteFormatsEachProbabilityOnce: a save formats each distinct
// probability once, however many entries repeat it, and writes the bytes
// appendRecord writes line by line — also past the cache's capacity, where
// the values it cannot hold are formatted where they occur.
func TestWriteFormatsEachProbabilityOnce(t *testing.T) {
	calls := 0
	defer func(f func([]byte, float64) []byte) { appendFloat = f }(appendFloat)
	appendFloat = func(dst []byte, f float64) []byte {
		calls++
		return codec.AppendFloat(dst, f)
	}
	for _, distinct := range []int{1, 283, floatCacheValues, floatCacheValues + 300} {
		s := New()
		for i := 0; i < 3*distinct+50; i++ {
			s.Put(Entry{Triple: mk(fmt.Sprintf("fact-%06d", i), "value", "v"), Sources: []string{"S1"},
				Probability: float64(i%distinct+1) / float64(distinct+7), Accepted: i%2 == 0})
		}
		calls = 0
		var got bytes.Buffer
		if err := s.Write(&got); err != nil {
			t.Fatal(err)
		}
		if distinct <= floatCacheValues && calls != distinct {
			t.Fatalf("%d distinct probabilities over %d entries: formatted %d times", distinct, s.Len(), calls)
		}
		var want []byte
		for i := range s.entries {
			e := &s.entries[i]
			want = appendRecord(want, &Record{Subject: e.Triple.Subject, Predicate: e.Triple.Predicate, Object: e.Triple.Object,
				Sources: e.Sources, Probability: e.Probability, Accepted: e.Accepted})
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%d distinct probabilities: the cached save differs from appendRecord's lines", distinct)
		}
	}
}
