package codec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// refDecode replicates the serving layer's legacy decode exactly:
// json.Decoder, then a second Decode that must hit io.EOF (anything else
// is trailing data).
func refDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		if err == nil {
			return errors.New("trailing data")
		}
		return err
	}
	return nil
}

var decodeBodies = []string{
	`{"triples":[{"subject":"s","predicate":"p","object":"o"}]}`,
	`{"triples":[{"Subject":"s","PREDICATE":"p","oBjEcT":"o"}]}`,
	`{"triples":[]}`,
	`{"triples":null}`,
	`{}`,
	`null`,
	` { "triples" : [ { "subject" : "a" } , { "object" : "b" } ] } `,
	`{"unknown":123,"triples":[{"subject":"s","predicate":"p","object":"o"}],"extra":{"deep":[1,2,{"x":null}]}}`,
	`{"triples":[{"subject":"dup"}],"triples":[{"subject":"wins"}]}`,
	`{"triples":[{"subject":"esc\nape\t\"q\"\u0041\u00e9\ud83d\ude00"}]}`,
	`{"triples":[{"subject":"\ud800"}]}`,
	`{"triples":[{"subject":"\ud800\udc00"}]}`,
	`{"triples":[{"subject":"\ud800\ud800"}]}`,
	`{"triples":[{"subject":"raw é unicode"}]}`,
	"{\"triples\":[{\"subject\":\"bad \xff utf8\"}]}",
	`{"triples":[{"subject":null,"predicate":"p"}]}`,
	`{"triples":[null]}`,
	`{"triples":[{"subject":"s","nested":{"a":[true,false,null,1.5e10,-0.25]}}]}`,
	`{"ſubject":"long s top-level is unknown here"}`,
	`{"triples":[{"ſubject":"folds to subject"}]}`,
	`{"triples":[{"subject":"s"}]}{"another":"doc"}`,
	`{"triples":[{"subject":"s"}]} garbage`,
	`{"triples":[{"subject":"s"}]}` + "\n\t ",
	`{"triples":[{"subject":1}]}`,
	`{"triples":"not an array"}`,
	`{"triples":[{"subject":"s"},]}`,
	`{"triples":[{"subject":"s"}`,
	`{"triples":[{"subject":"unterminated`,
	`{"triples":[{"subject":"bad \q escape"}]}`,
	`{"triples":[{"subject":"bad \u00zz hex"}]}`,
	`{"triples":[{"subject":"ctrl ` + "\x01" + ` raw"}]}`,
	`{bad json`,
	``,
	`   `,
	`true`,
	`42`,
	`"a string"`,
	`[1,2,3]`,
	`{"n":01}`,
	`{"n":1e999}`,
	`{"n":-0.5e+10}`,
	`{"n":.5}`,
	`{"n":5.}`,
	`{"n":+1}`,
	`{"triples":[{"subject":"s"}],}`,
	`{"triples" [}`,
	`{"a":}`,
	`{:1}`,
	strings.Repeat(`{"x":`, 200) + `1` + strings.Repeat(`}`, 200),
}

func TestDecodeScoreRequestMatchesJSON(t *testing.T) {
	for _, body := range decodeBodies {
		var want ScoreRequest
		wantErr := refDecode([]byte(body), &want)
		var got ScoreRequest
		gotErr := DecodeScoreRequest([]byte(body), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("body %q: error disagreement: encoding/json=%v codec=%v", body, wantErr, gotErr)
			continue
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("body %q:\n got %+v\nwant %+v", body, got, want)
		}
	}
}

func TestDecodeObserveRequestMatchesJSON(t *testing.T) {
	bodies := append([]string{
		`{"source":"a","subject":"s","predicate":"p","object":"o"}`,
		`{"source":"a","subject":"s","predicate":"p","object":"o","label":"true"}`,
		`{"observations":[{"source":"a","subject":"s","predicate":"p","object":"o"}]}`,
		`{"observations":[{"source":"a"},{"label":"false"}]}`,
		`{"source":"both","observations":[{"source":"a"}]}`,
		`{"observations":null,"label":"x"}`,
		`{"observations":[null,{"source":"a"}]}`,
		`{"SOURCE":"caps","Observations":[{"LABEL":"t"}]}`,
	}, decodeBodies...)
	for _, body := range bodies {
		var want ObserveRequest
		wantErr := refDecode([]byte(body), &want)
		var got ObserveRequest
		gotErr := DecodeObserveRequest([]byte(body), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("body %q: error disagreement: encoding/json=%v codec=%v", body, wantErr, gotErr)
			continue
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("body %q:\n got %+v\nwant %+v", body, got, want)
		}
	}
}

func TestDecodeTrailingSentinel(t *testing.T) {
	var req ScoreRequest
	err := DecodeScoreRequest([]byte(`{} {}`), &req)
	if !errors.Is(err, ErrTrailing) {
		t.Fatalf("want ErrTrailing, got %v", err)
	}
	err = DecodeScoreRequest([]byte(`{"x":1`), &req)
	var syn *SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("want SyntaxError, got %v", err)
	}
}

// The fuzzers hold the decoders to encoding/json's observable behavior:
// no panics, agreement on accept/reject, and identical decoded values on
// accept.
func FuzzDecodeScoreRequest(f *testing.F) {
	for _, body := range decodeBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want ScoreRequest
		wantErr := refDecode(data, &want)
		var got ScoreRequest
		gotErr := DecodeScoreRequest(data, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error disagreement on %q: encoding/json=%v codec=%v", data, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("value disagreement on %q:\n got %+v\nwant %+v", data, got, want)
		}
	})
}

func FuzzDecodeObserveRequest(f *testing.F) {
	for _, body := range decodeBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"source":"a","observations":[{"subject":"s"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want ObserveRequest
		wantErr := refDecode(data, &want)
		var got ObserveRequest
		gotErr := DecodeObserveRequest(data, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error disagreement on %q: encoding/json=%v codec=%v", data, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("value disagreement on %q:\n got %+v\nwant %+v", data, got, want)
		}
	})
}

// FuzzAppendStringRoundTrip checks the encoders against encoding/json on
// arbitrary (including invalid-UTF-8) inputs: identical bytes out, with
// EscapeHTML off and on.
func FuzzAppendStringRoundTrip(f *testing.F) {
	for _, s := range trickyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Skip()
		}
		want := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
		want, _ = json.Marshal(s)
		if got := AppendStringHTML(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendStringHTML(%q) = %s, want %s", s, got, want)
		}
	})
}

// TestInternerBoundedAndTransparent: fed more distinct values than internCap
// the table stops at the cap and every value still decodes as String decodes
// it; a value the table holds comes back without allocating.
func TestInternerBoundedAndTransparent(t *testing.T) {
	var in Interner
	for round := 0; round < 2; round++ {
		for i := 0; i < internCap+1000; i++ {
			doc := []byte(fmt.Sprintf(`"name-%d"`, i))
			got, err := NewDecoder(doc).InternedString(&in)
			want, wantErr := NewDecoder(doc).String()
			if got != want || err != nil || wantErr != nil {
				t.Fatalf("%s: interned %q (%v), fresh %q (%v)", doc, got, err, want, wantErr)
			}
		}
		if len(in.tab) != internCap {
			t.Fatalf("round %d: table holds %d values, want the cap %d", round, len(in.tab), internCap)
		}
	}
	d := NewDecoder([]byte(`"name-7"`))
	if allocs := testing.AllocsPerRun(100, func() {
		d.pos = 0
		if s, err := d.InternedString(&in); s != "name-7" || err != nil {
			t.Fatalf("%q, %v", s, err)
		}
	}); allocs != 0 {
		t.Errorf("a held value costs %v allocations, want 0", allocs)
	}
	// Escaped and non-ASCII values bypass the table and still agree.
	for _, doc := range []string{`"abc"`, `"é"`, "\"bad \xff\"", `"\ud800"`, `"unterminated`, `"bad \q"`, "\"ctrl \x01\"", `7`} {
		di, ds := NewDecoder([]byte(doc)), NewDecoder([]byte(doc))
		got, err := di.InternedString(&in)
		want, wantErr := ds.String()
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) || di.pos != ds.pos {
			t.Errorf("%s: interned %q (%v) at %d, fresh %q (%v) at %d", doc, got, err, di.pos, want, wantErr, ds.pos)
		}
	}
	if len(in.tab) != internCap {
		t.Fatalf("table grew to %d past the cap", len(in.tab))
	}
}

// TestNestingLimitMatchesJSON: encoding/json refuses a document with more
// than 10000 objects and arrays open at once, wherever they are; the
// decoders refuse exactly those.
func TestNestingLimitMatchesJSON(t *testing.T) {
	for _, open := range []int{9998, 9999, 10000} {
		deep := strings.Repeat("[", open) + strings.Repeat("]", open)
		for _, body := range []string{
			`{"x":` + deep + `}`,
			`{"triples":[{"x":` + deep[2:len(deep)-2] + `}]}`,
		} {
			wantErr := refDecode([]byte(body), new(ScoreRequest))
			gotErr := DecodeScoreRequest([]byte(body), new(ScoreRequest))
			if (wantErr == nil) != (gotErr == nil) {
				t.Errorf("%d open arrays: encoding/json=%v codec=%v", open, wantErr, gotErr)
			}
		}
	}
}

// TestUint: exact unsigned integers of the asked size, and nothing else.
func TestUint(t *testing.T) {
	for _, c := range []struct {
		in   string
		bits int
		want uint64
		ok   bool
	}{
		{"0", 32, 0, true}, {" 4294967295", 32, 1<<32 - 1, true}, {"4294967296", 32, 0, false},
		{"18446744073709551615", 64, 1<<64 - 1, true}, {"18446744073709551616", 64, 0, false},
		{"99999999999999999999", 64, 0, false}, {"-0", 64, 0, false}, {"1.0", 64, 0, false},
		{"1e2", 64, 0, false}, {"", 64, 0, false}, {`"1"`, 64, 0, false}, {"null", 64, 0, false},
	} {
		got, err := NewDecoder([]byte(c.in)).Uint(c.bits)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Uint(%d) of %q = %d, %v; want %d, ok %v", c.bits, c.in, got, err, c.want, c.ok)
		}
	}
}
