package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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

// TestStrictCodecAgreesWithEncodingJSON: on every line the strict decoder
// accepts, it yields exactly what encoding/json would — strictness narrows
// the accepted set, it never reinterprets a value.
func TestStrictCodecAgreesWithEncodingJSON(t *testing.T) {
	for _, line := range []string{
		goodLine,
		`{"subject":"s","predicate":"p","object":"o"}`,
		` { "object" : "o" , "predicate" : "p" , "subject" : "s" , "sources" : [ ] } `,
		`{"subject":"s","predicate":"p","object":"o","sources":null,"label":"true"}`, // datagen before the schemas merged
		"{\"subject\":\"s\",\"predicate\":\"p\",\"object\":\"o\",\t\"sources\" : [ \"a\" ,\r \"b\" ] }",
		`{"subject":"uni \u00e9 é","predicate":"p\tq\\\"","object":"\ud83d\ude00 \ud800","sources":["<&>"],"label":"false"}`,
		`{"subject":"s","predicate":"p","object":"o","probability":5e-324,"accepted":false}`,
		`{"subject":"s","predicate":"p","object":"o","probability":1.0E+0}`,
		"{\"subject\":\"bad utf8 \xff\",\"predicate\":\"p\",\"object\":\"o\"}",
	} {
		var got, want Record
		if err := decodeRecord([]byte(line), &got); err != nil {
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
