package store

// The one JSONL schema. Every store and dataset file — datagen output,
// fuse -out, Store.Save, the follower bootstrap stream — is a sequence of
// Record lines, written by WriteRecords and read by ReadRecords. The reader
// is strict: a line the schema does not describe is a line-numbered error
// naming the offending key, never a partially filled record.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

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

// writeChunk is how many encoded bytes WriteRecords gathers before it hands
// them to the writer.
const writeChunk = 64 << 10

// WriteRecords streams n records as JSONL; fill populates the zeroed rec
// for position i. Each line is byte for byte what encoding/json's Encoder
// writes for the Record (key order, omitempty, HTML-safe string escapes,
// float spelling, trailing newline) — files written before and after the
// encoder was replaced compare equal — appended into one reused buffer.
//
// Each distinct probability is formatted once per call (floatCache), up to
// floatCacheValues of them; the rest are formatted where they occur.
func WriteRecords(w io.Writer, n int, fill func(i int, rec *Record)) error {
	buf := make([]byte, 0, writeChunk+4<<10)
	floats := new(floatCache)
	var rec Record
	for i := 0; i < n; i++ {
		rec = Record{}
		fill(i, &rec)
		if err := rec.validate(); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		buf = floats.appendRecord(buf, &rec)
		if len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// appendRecord appends rec as one JSONL line.
func appendRecord(dst []byte, rec *Record) []byte {
	return (*floatCache)(nil).appendRecord(dst, rec)
}

// appendRecord is appendRecord formatting the probability through c; a nil
// c formats it afresh.
func (c *floatCache) appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, `{"subject":`...)
	dst = codec.AppendStringHTML(dst, rec.Subject)
	dst = append(dst, `,"predicate":`...)
	dst = codec.AppendStringHTML(dst, rec.Predicate)
	dst = append(dst, `,"object":`...)
	dst = codec.AppendStringHTML(dst, rec.Object)
	if len(rec.Sources) > 0 {
		dst = append(dst, `,"sources":[`...)
		for i, src := range rec.Sources {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = codec.AppendStringHTML(dst, src)
		}
		dst = append(dst, ']')
	}
	if rec.Label != "" {
		dst = append(dst, `,"label":`...)
		dst = codec.AppendStringHTML(dst, rec.Label)
	}
	if rec.Probability != 0 {
		dst = append(dst, `,"probability":`...)
		dst = c.appendFloat(dst, rec.Probability)
	}
	if rec.Accepted {
		dst = append(dst, `,"accepted":true`...)
	}
	return append(dst, '}', '\n')
}

// floatCacheSlots is the size of a floatCache's table, and
// floatCacheValues how many values it holds before it stops adding: half
// full, so a probe that misses ends within a few slots.
const (
	floatCacheSlots  = 1024
	floatCacheValues = floatCacheSlots / 2
)

// floatCache holds the spelling of each float64 a save has written, by bit
// pattern, in an open-addressed table of fixed size: a store holds few
// distinct probabilities, and formatting one is most of a line's cost.
type floatCache struct {
	bits  [floatCacheSlots]uint64
	n     [floatCacheSlots]uint8 // spelling length; 0 marks a free slot
	text  [floatCacheSlots][24]byte
	count int
}

// appendFloat appends f's spelling, copied from the cache when this save
// has formatted f before; a nil c formats f afresh. Every finite float64's
// spelling fits in 24 bytes.
func (c *floatCache) appendFloat(dst []byte, f float64) []byte {
	if c == nil {
		return appendFloat(dst, f)
	}
	b := math.Float64bits(f)
	slot := int(b * 0x9e3779b97f4a7c15 >> 54) // the top 10 bits: floatCacheSlots
	for ; c.n[slot] != 0; slot = (slot + 1) % floatCacheSlots {
		if c.bits[slot] == b {
			return append(dst, c.text[slot][:c.n[slot]]...)
		}
	}
	start := len(dst)
	dst = appendFloat(dst, f)
	if c.count < floatCacheValues && len(dst)-start <= len(c.text[slot]) {
		c.bits[slot], c.n[slot] = b, uint8(copy(c.text[slot][:], dst[start:]))
		c.count++
	}
	return dst
}

// appendFloat formats a probability; tests count its calls.
var appendFloat = codec.AppendFloat

// maxLineBytes is the longest line ReadRecords accepts.
const maxLineBytes = 4 << 20

// ReadRecords parses a JSONL stream, handing each record to fn (the record
// is reused between calls; its Sources slice is not). Blank lines are
// skipped; any other line that is not exactly one well-formed Record — or
// is longer than maxLineBytes — fails with a "line N:" error. Repeated
// predicate, object, source and label values share one string per stream
// through a codec.Interner, whose size is bounded whatever the file holds;
// subjects are not interned.
func ReadRecords(r io.Reader, fn func(rec *Record)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes+1) // +1: the newline
	var (
		rec Record
		in  codec.Interner
	)
	line := 1
	for ; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := decodeRecord(sc.Bytes(), &rec, &in); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		fn(&rec)
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		return fmt.Errorf("line %d: longer than %d bytes", line, maxLineBytes)
	}
	return sc.Err()
}

// decodeRecord is the strict line decoder: one JSON object whose keys are
// exactly Record's (case-sensitive, each at most once) with values of
// exactly the field's type (no null, except "sources":null for the empty
// list, which datagen wrote before the schemas merged), and nothing but
// whitespace around it. A nil in decodes every string afresh.
func decodeRecord(line []byte, rec *Record, in *codec.Interner) error {
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
			rec.Predicate, err = d.InternedString(in)
		case "object":
			bit = 1 << 2
			rec.Object, err = d.InternedString(in)
		case "sources":
			bit = 1 << 3
			rec.Sources, err = d.Strings(in)
		case "label":
			bit = 1 << 4
			rec.Label, err = d.InternedString(in)
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
