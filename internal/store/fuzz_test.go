package store

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the JSONL loader and checks the
// contracts external data gets: malformed input returns an error (never a
// panic), nothing the loader accepts holds an empty triple component (the
// shape a mis-dialected line used to load as), and anything it accepts
// survives a Write/Read round trip as the identical store — the
// persistence path must be lossless for whatever it admits.
func FuzzRead(f *testing.F) {
	f.Add([]byte(`{"subject":"s","predicate":"p","object":"o","sources":["a","b"],"label":"true"}`))
	f.Add([]byte(`{"subject":"s","predicate":"p","object":"o","probability":0.75,"accepted":true}`))
	f.Add([]byte("{\"subject\":\"s\",\"predicate\":\"p\",\"object\":\"o\"}\n{\"subject\":\"s\",\"predicate\":\"p\",\"object\":\"o\",\"sources\":[\"x\"]}\n"))
	f.Add([]byte(`{"subject":`))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"subject":"\u001f","predicate":"","object":"o","sources":[""]}`))
	f.Add([]byte(`{"subject":"s","predicate":"p","object":"o","probability":1e999}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		if err := s.Read(bytes.NewReader(data)); err != nil {
			return // rejected input: an error is the contract
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatalf("accepted store failed to serialize: %v", err)
		}
		s2 := New()
		if err := s2.Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("round trip rejected by Read: %v\nserialized: %q", err, buf.Bytes())
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round trip changed Len: %d -> %d", s.Len(), s2.Len())
		}
		for _, e := range s.entries {
			if e.Triple.Subject == "" || e.Triple.Predicate == "" || e.Triple.Object == "" {
				t.Fatalf("loader admitted an empty triple component: %+v\ninput: %q", e, data)
			}
			got, ok := s2.Get(e.Triple)
			if !ok {
				t.Fatalf("round trip lost %v", e.Triple)
			}
			if !reflect.DeepEqual(got, e) {
				t.Fatalf("round trip changed %v:\n  before %+v\n  after  %+v", e.Triple, e, got)
			}
		}
	})
}
