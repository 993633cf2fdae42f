package store

// The one JSONL schema. Every store and dataset file — datagen output,
// fuse -out, Store.Save, the follower bootstrap stream — is a sequence of
// Record lines, written by WriteRecords and read by ReadRecords. The reader
// is strict: a line the schema does not describe is a line-numbered error
// naming the offending key, never a partially filled record.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"corrfuse/internal/codec"
	"corrfuse/internal/triple"
)

// Record is one line of a store or dataset file: a triple, the sources
// providing it, an optional gold label ("true" or "false") and the fusion
// result, if any.
type Record struct {
	Subject     string   `json:"subject"`
	Predicate   string   `json:"predicate"`
	Object      string   `json:"object"`
	Sources     []string `json:"sources,omitempty"`
	Label       string   `json:"label,omitempty"`
	Probability float64  `json:"probability,omitempty"`
	Accepted    bool     `json:"accepted,omitempty"`
}

// validate enforces the value rules of the schema; both directions of the
// codec apply it, so nothing WriteRecords emits is refused by ReadRecords.
func (r *Record) validate() error {
	for _, f := range [...]struct{ key, val string }{
		{"subject", r.Subject}, {"predicate", r.Predicate}, {"object", r.Object},
	} {
		if f.val == "" {
			return fmt.Errorf("missing or empty %q", f.key)
		}
	}
	for _, src := range r.Sources {
		if src == "" {
			return errors.New(`empty source name in "sources"`)
		}
	}
	if _, ok := triple.ParseGold(r.Label); !ok {
		return fmt.Errorf(`"label" is %q, want "true" or "false"`, r.Label)
	}
	if !(r.Probability >= 0 && r.Probability <= 1) { // also catches NaN
		return fmt.Errorf(`"probability" %v outside [0,1]`, r.Probability)
	}
	return nil
}

// WriteRecords streams n records as JSONL; fill populates the zeroed rec
// for position i.
func WriteRecords(w io.Writer, n int, fill func(i int, rec *Record)) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var rec Record // one allocation: Encode takes it by interface
	for i := 0; i < n; i++ {
		rec = Record{}
		fill(i, &rec)
		err := rec.validate()
		if err == nil {
			err = enc.Encode(&rec)
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadRecords parses a JSONL stream, handing each record to fn (the record
// is reused between calls; its Sources slice is not). Blank lines are
// skipped; any other line that is not exactly one well-formed Record fails
// with a "line N:" error.
func ReadRecords(r io.Reader, fn func(rec *Record)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var rec Record
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := decodeRecord(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		fn(&rec)
	}
	return sc.Err()
}

// decodeRecord is the strict line decoder: one JSON object whose keys are
// exactly Record's (case-sensitive, each at most once) with values of
// exactly the field's type (no null, except "sources":null for the empty
// list, which datagen wrote before the schemas merged), and nothing but
// whitespace around it.
func decodeRecord(line []byte, rec *Record) error {
	*rec = Record{}
	d := codec.NewDecoder(line)
	seen := 0
	err := d.Object(func(key []byte) error {
		var bit int // the key's position in Record
		var err error
		switch string(key) {
		case "subject":
			bit = 1 << 0
			rec.Subject, err = d.String()
		case "predicate":
			bit = 1 << 1
			rec.Predicate, err = d.String()
		case "object":
			bit = 1 << 2
			rec.Object, err = d.String()
		case "sources":
			bit = 1 << 3
			rec.Sources, err = d.Strings()
		case "label":
			bit = 1 << 4
			rec.Label, err = d.String()
		case "probability":
			bit = 1 << 5
			rec.Probability, err = d.Number()
		case "accepted":
			bit = 1 << 6
			rec.Accepted, err = d.Bool()
		default:
			return fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		if seen&bit != 0 {
			return fmt.Errorf("duplicate key %q", key)
		}
		seen |= bit
		return nil
	})
	if err == nil {
		err = d.End()
	}
	if err == nil {
		err = rec.validate()
	}
	return err
}
