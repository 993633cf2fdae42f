package codec

import (
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"corrfuse/internal/triple"
)

// ErrTrailing reports a second JSON value (or garbage) after the request
// document — the serving layer turns it into the same 400 the old
// json.Decoder-based framing check produced.
var ErrTrailing = errors.New("trailing data after JSON document")

// SyntaxError is a malformed-body error with the byte offset it was
// detected at.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("invalid JSON at byte %d: %s", e.Offset, e.Msg)
}

// maxNestingDepth caps how many objects and arrays may be open at once,
// mirroring encoding/json's scanner limit so the strict and reflective
// paths agree on what parses.
const maxNestingDepth = 10000

// DecodeScoreRequest parses a /v1/score body into req, with
// encoding/json's field semantics: case-insensitive names, unknown fields
// skipped, null no-ops, last duplicate wins. A top-level null leaves req
// untouched. Data after the document returns an error wrapping
// ErrTrailing.
func DecodeScoreRequest(data []byte, req *ScoreRequest) error {
	d := &Decoder{data: data}
	d.skipSpace()
	if d.eat('n') {
		if err := d.literal("null"); err != nil {
			return err
		}
		return d.End()
	}
	if err := d.Object(func(key []byte) error {
		if KeyIs(key, "triples") {
			return d.tripleArray(&req.Triples)
		}
		return d.skipValue()
	}); err != nil {
		return err
	}
	return d.End()
}

// DecodeObserveRequest parses a /v1/observe body into req (either a
// single top-level observation, {"observations": [...]}, or — ambiguously
// — both; the serving layer rejects the ambiguity). Semantics match
// DecodeScoreRequest.
func DecodeObserveRequest(data []byte, req *ObserveRequest) error {
	d := &Decoder{data: data}
	d.skipSpace()
	if d.eat('n') {
		if err := d.literal("null"); err != nil {
			return err
		}
		return d.End()
	}
	if err := d.Object(func(key []byte) error {
		switch {
		case KeyIs(key, "source"):
			return d.stringField(&req.Source)
		case KeyIs(key, "subject"):
			return d.stringField(&req.Subject)
		case KeyIs(key, "predicate"):
			return d.stringField(&req.Predicate)
		case KeyIs(key, "object"):
			return d.stringField(&req.Object)
		case KeyIs(key, "label"):
			return d.stringField(&req.Label)
		case KeyIs(key, "observations"):
			return d.observationArray(&req.Observations)
		}
		return d.skipValue()
	}); err != nil {
		return err
	}
	return d.End()
}

// Decoder is a cursor over one JSON document. The request decoders above
// layer encoding/json's lenient field semantics on it; internal/store's
// strict line codec and internal/wal's line codec use the exported
// methods, which decode exactly the value asked for — no coercion, and
// null only where documented — so the repo has one string unescaper and
// one number grammar. The WAL rebuilds encoding/json's field semantics
// from Null and KeyIs.
type Decoder struct {
	data  []byte
	pos   int
	depth int // objects and arrays open at pos
}

// NewDecoder returns a Decoder at the start of data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// internCap bounds an Interner: a stream with more distinct values than this
// (subjects, free text) pays one allocation per further value, as String
// does, and the table stops growing.
const internCap = 4096

// Interner is a bounded table of the string values already decoded from one
// stream of documents. A store file repeats a few dozen source names,
// predicates and labels on every line; InternedString hands each repeat the
// string the first occurrence allocated. The zero value is ready for use; a
// nil *Interner interns nothing. Not safe for concurrent use.
type Interner struct {
	tab  map[string]string
	list []string // Strings' scratch, so the returned slice is cut once
}

// get returns b as a string, from the table when it is there.
func (in *Interner) get(b []byte) string {
	if in == nil {
		return string(b)
	}
	if s, ok := in.tab[string(b)]; ok { // no allocation: the compiler elides the conversion
		return s
	}
	s := string(b)
	if len(in.tab) < internCap {
		if in.tab == nil {
			in.tab = make(map[string]string)
		}
		in.tab[s] = s
	}
	return s
}

// Strings parses an array of strings, each read as InternedString reads it;
// null or an empty array yields nil. The returned slice is the caller's.
func (d *Decoder) Strings(in *Interner) ([]string, error) {
	if isNull, err := d.Null(); err != nil || isNull {
		return nil, err
	}
	var list []string
	if in != nil {
		list = in.list[:0]
	}
	err := d.array(func() error {
		s, err := d.InternedString(in)
		list = append(list, s)
		return err
	})
	if in != nil {
		in.list = list
	}
	if err != nil || len(list) == 0 {
		return nil, err
	}
	return append(make([]string, 0, len(list)), list...), nil
}

// Number parses a JSON number; out-of-range values are an error.
func (d *Decoder) Number() (float64, error) {
	d.skipSpace()
	start := d.pos
	if err := d.skipNumber(); err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(d.data[start:d.pos]), 64)
}

// Uint parses a JSON number that is an exact unsigned integer of at most
// bitSize bits, the numbers encoding/json stores in a uint field of that
// size: a sign, a fraction, an exponent or an overflow is an error.
func (d *Decoder) Uint(bitSize int) (uint64, error) {
	d.skipSpace()
	start := d.pos
	if err := d.skipNumber(); err != nil {
		return 0, err
	}
	max := uint64(1)<<bitSize - 1 // bitSize 64: the shift is 0, so max wraps to all ones
	var v uint64
	for _, c := range d.data[start:d.pos] {
		if c < '0' || c > '9' || v > (max-uint64(c-'0'))/10 {
			return 0, &SyntaxError{Offset: start, Msg: fmt.Sprintf("number %s is not a uint%d", d.data[start:d.pos], bitSize)}
		}
		v = v*10 + uint64(c-'0')
	}
	return v, nil
}

// Raw consumes one well-formed value and returns its exact bytes, without
// the whitespace around it — what json.RawMessage would hold. The bytes
// alias the decoder's input.
func (d *Decoder) Raw() ([]byte, error) {
	d.skipSpace()
	start := d.pos
	if err := d.skipValue(); err != nil {
		return nil, err
	}
	return d.data[start:d.pos], nil
}

// Bool parses true or false.
func (d *Decoder) Bool() (bool, error) {
	d.skipSpace()
	if d.eat('t') {
		return true, d.literal("true")
	}
	return false, d.literal("false")
}

func (d *Decoder) errf(format string, args ...any) error {
	return &SyntaxError{Offset: d.pos, Msg: fmt.Sprintf(format, args...)}
}

func (d *Decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat reports whether the next byte is c without consuming it.
func (d *Decoder) eat(c byte) bool {
	return d.pos < len(d.data) && d.data[d.pos] == c
}

// advance consumes one expected byte.
func (d *Decoder) advance(c byte) error {
	if !d.eat(c) {
		return d.errf("expected %q", string(rune(c)))
	}
	d.pos++
	return nil
}

// End errors (wrapping ErrTrailing) unless only whitespace remains.
func (d *Decoder) End() error {
	d.skipSpace()
	if d.pos != len(d.data) {
		return fmt.Errorf("%w (at byte %d)", ErrTrailing, d.pos)
	}
	return nil
}

// literal consumes an exact keyword (true, false, null).
func (d *Decoder) literal(want string) error {
	if len(d.data)-d.pos < len(want) || string(d.data[d.pos:d.pos+len(want)]) != want {
		return d.errf("invalid literal")
	}
	d.pos += len(want)
	return nil
}

// Object parses {"key": value, ...}, dispatching each value to field,
// which must consume it (keys are raw unquoted bytes; repeats are the
// callback's to judge).
func (d *Decoder) Object(field func(key []byte) error) error {
	d.skipSpace()
	if err := d.enter('{'); err != nil {
		return err
	}
	d.skipSpace()
	if d.eat('}') {
		return d.leave('}')
	}
	for {
		d.skipSpace()
		key, err := d.key()
		if err != nil {
			return err
		}
		d.skipSpace()
		if err := d.advance(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		d.skipSpace()
		if d.eat(',') {
			d.pos++
			continue
		}
		return d.leave('}')
	}
}

// array parses [value, ...], dispatching each element to elem.
func (d *Decoder) array(elem func() error) error {
	d.skipSpace()
	if err := d.enter('['); err != nil {
		return err
	}
	d.skipSpace()
	if d.eat(']') {
		return d.leave(']')
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.skipSpace()
		if d.eat(',') {
			d.pos++
			d.skipSpace()
			continue
		}
		return d.leave(']')
	}
}

// enter consumes the opening byte of an object or array, refusing the
// container past encoding/json's nesting limit.
func (d *Decoder) enter(c byte) error {
	if err := d.advance(c); err != nil {
		return err
	}
	if d.depth++; d.depth > maxNestingDepth {
		return d.errf("exceeded max nesting depth")
	}
	return nil
}

// leave consumes the closing byte of an object or array.
func (d *Decoder) leave(c byte) error {
	d.depth--
	return d.advance(c)
}

// Null consumes a null (returning true) or leaves the position for a real
// value, which is how a field keeps encoding/json's "null leaves it
// unchanged".
func (d *Decoder) Null() (bool, error) {
	d.skipSpace()
	if d.eat('n') {
		if err := d.literal("null"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// stringField decodes a string value into dst; null leaves dst unchanged.
func (d *Decoder) stringField(dst *string) error {
	isNull, err := d.Null()
	if err != nil || isNull {
		return err
	}
	s, err := d.String()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// tripleArray decodes [{"subject":...}, ...] into dst (replacing it, as
// encoding/json does for slices); null leaves dst unchanged.
func (d *Decoder) tripleArray(dst *[]triple.Triple) error {
	isNull, err := d.Null()
	if err != nil || isNull {
		return err
	}
	// encoding/json reuses existing slice elements in place (a duplicate
	// key's second array merges element-wise into the first); reading
	// prev[len(out)] before the append overwrites that slot preserves it.
	prev := *dst
	out := prev[:0]
	err = d.array(func() error {
		var t triple.Triple
		if len(out) < len(prev) {
			t = prev[len(out)]
		}
		if err := d.tripleValue(&t); err != nil {
			return err
		}
		out = append(out, t)
		return nil
	})
	if out == nil {
		// encoding/json materializes an empty non-nil slice for [].
		out = []triple.Triple{}
	}
	*dst = out
	return err
}

func (d *Decoder) tripleValue(t *triple.Triple) error {
	isNull, err := d.Null()
	if err != nil || isNull {
		return err
	}
	return d.Object(func(key []byte) error {
		switch {
		case KeyIs(key, "subject"):
			return d.stringField(&t.Subject)
		case KeyIs(key, "predicate"):
			return d.stringField(&t.Predicate)
		case KeyIs(key, "object"):
			return d.stringField(&t.Object)
		}
		return d.skipValue()
	})
}

// observationArray decodes [{"source":...}, ...] into dst; null leaves
// dst unchanged.
func (d *Decoder) observationArray(dst *[]Observation) error {
	isNull, err := d.Null()
	if err != nil || isNull {
		return err
	}
	// Same element-reuse semantics as tripleArray.
	prev := *dst
	out := prev[:0]
	err = d.array(func() error {
		var o Observation
		if len(out) < len(prev) {
			o = prev[len(out)]
		}
		isNull, err := d.Null()
		if err != nil {
			return err
		}
		if !isNull {
			err = d.Object(func(key []byte) error {
				switch {
				case KeyIs(key, "source"):
					return d.stringField(&o.Source)
				case KeyIs(key, "subject"):
					return d.stringField(&o.Subject)
				case KeyIs(key, "predicate"):
					return d.stringField(&o.Predicate)
				case KeyIs(key, "object"):
					return d.stringField(&o.Object)
				case KeyIs(key, "label"):
					return d.stringField(&o.Label)
				}
				return d.skipValue()
			})
			if err != nil {
				return err
			}
		}
		out = append(out, o)
		return nil
	})
	if out == nil {
		// encoding/json materializes an empty non-nil slice for [].
		out = []Observation{}
	}
	*dst = out
	return err
}

// key parses an object key, returning its unescaped raw bytes. Keys
// without escapes alias the input buffer (no allocation); escaped keys
// are unquoted into a fresh slice so folding sees the real characters.
func (d *Decoder) key() ([]byte, error) {
	if err := d.advance('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for d.pos = plainASCII(d.data, d.pos); d.pos < len(d.data); d.pos = plainASCII(d.data, d.pos) {
		switch c := d.data[d.pos]; {
		case c == '"':
			raw := d.data[start:d.pos]
			d.pos++
			return raw, nil
		case c == '\\':
			d.pos = start - 1 // rewind to the opening quote
			s, err := d.String()
			if err != nil {
				return nil, err
			}
			return []byte(s), nil
		case c < 0x20:
			return nil, d.errf("control character in string")
		default:
			d.pos++
		}
	}
	return nil, d.errf("unterminated string")
}

// String parses a JSON string value with encoding/json's semantics:
// strict escape validation, surrogate pairs combined, unpaired surrogates
// and invalid UTF-8 coerced to U+FFFD.
func (d *Decoder) String() (string, error) { return d.InternedString(nil) }

// InternedString is String, except that a plain-ASCII value without escapes
// that in already holds is returned from in without allocating. Value, error
// and position are String's in every case.
func (d *Decoder) InternedString(in *Interner) (string, error) {
	d.skipSpace()
	if err := d.advance('"'); err != nil {
		return "", err
	}
	start := d.pos
	// Fast path: plain ASCII without escapes aliases no memory and costs
	// at most one string allocation.
	if d.pos = plainASCII(d.data, start); d.eat('"') {
		s := in.get(d.data[start:d.pos])
		d.pos++
		return s, nil
	}
	// Slow path: escapes, non-ASCII or control bytes.
	buf := append([]byte(nil), d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return string(buf), nil
		case c == '\\':
			d.pos++
			r, err := d.escape()
			if err != nil {
				return "", err
			}
			buf = utf8.AppendRune(buf, r)
		case c < 0x20:
			return "", d.errf("control character in string")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			// DecodeRune already maps invalid sequences to U+FFFD with
			// size 1, which is exactly encoding/json's coercion.
			buf = utf8.AppendRune(buf, r)
			d.pos += size
		}
	}
	return "", d.errf("unterminated string")
}

// escape parses one backslash escape (the backslash already consumed),
// returning the rune it denotes.
func (d *Decoder) escape() (rune, error) {
	if d.pos >= len(d.data) {
		return 0, d.errf("unterminated escape")
	}
	c := d.data[d.pos]
	d.pos++
	switch c {
	case '"', '\\', '/':
		return rune(c), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		r, err := d.hex4()
		if err != nil {
			return 0, err
		}
		if utf16.IsSurrogate(r) {
			if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
				save := d.pos
				d.pos += 2
				r2, err := d.hex4()
				if err != nil {
					return 0, err
				}
				if combined := utf16.DecodeRune(r, r2); combined != utf8.RuneError {
					return combined, nil
				}
				// Not a valid pair: the second escape stands alone
				// (itself coerced if it is a surrogate half).
				d.pos = save
			}
			return utf8.RuneError, nil
		}
		return r, nil
	}
	return 0, d.errf("invalid escape character")
}

func (d *Decoder) hex4() (rune, error) {
	if d.pos+4 > len(d.data) {
		return 0, d.errf("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := d.data[d.pos+i]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, d.errf("invalid \\u escape")
		}
		r = r<<4 + rune(c)
	}
	d.pos += 4
	return r, nil
}

// skipValue consumes any well-formed JSON value without decoding it.
func (d *Decoder) skipValue() error {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return d.errf("unexpected end of input")
	}
	switch c := d.data[d.pos]; {
	case c == '{':
		return d.Object(func([]byte) error { return d.skipValue() })
	case c == '[':
		return d.array(d.skipValue)
	case c == '"':
		return d.skipString()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || (c >= '0' && c <= '9'):
		return d.skipNumber()
	}
	return d.errf("unexpected character %q", string(rune(d.data[d.pos])))
}

// skipString validates a string without building it.
func (d *Decoder) skipString() error {
	if err := d.advance('"'); err != nil {
		return err
	}
	for d.pos = plainASCII(d.data, d.pos); d.pos < len(d.data); d.pos = plainASCII(d.data, d.pos) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return nil
		case c == '\\':
			d.pos++
			if _, err := d.escape(); err != nil {
				return err
			}
		case c < 0x20:
			return d.errf("control character in string")
		default:
			d.pos++
		}
	}
	return d.errf("unterminated string")
}

// skipNumber validates a number against the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *Decoder) skipNumber() error {
	digits := func() bool {
		n := 0
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n > 0
	}
	if d.eat('-') {
		d.pos++
	}
	switch {
	case d.eat('0'):
		d.pos++
	case d.pos < len(d.data) && d.data[d.pos] >= '1' && d.data[d.pos] <= '9':
		digits()
	default:
		return d.errf("invalid number")
	}
	if d.eat('.') {
		d.pos++
		if !digits() {
			return d.errf("invalid number")
		}
	}
	if d.eat('e') || d.eat('E') {
		d.pos++
		if d.eat('+') || d.eat('-') {
			d.pos++
		}
		if !digits() {
			return d.errf("invalid number")
		}
	}
	return nil
}

// plainASCII returns the index of the first byte from i on that a string
// scan must look at: a quote, a backslash, a control or a non-ASCII byte.
func plainASCII(data []byte, i int) int {
	for i < len(data) && data[i] < utf8.RuneSelf && safeASCII[data[i]] {
		i++
	}
	return i
}

// KeyIs reports whether a raw object key (as Object hands it over) names
// the field name the way encoding/json matches keys to fields: ASCII
// case-insensitively, plus the two Unicode runes whose simple fold lands
// in ASCII (U+017F long s, U+212A kelvin). name must be ASCII lowercase.
func KeyIs(key []byte, name string) bool {
	if len(key) < len(name) {
		return false // each byte of name needs a rune, at least a byte, of key
	}
	i := 0
	for j := 0; j < len(name); j++ {
		if i >= len(key) {
			return false
		}
		r, size := utf8.DecodeRune(key[i:])
		i += size
		switch {
		case r >= 'A' && r <= 'Z':
			r += 'a' - 'A'
		case r == '\u017f': // long s
			r = 's'
		case r == '\u212a': // kelvin sign
			r = 'k'
		}
		if r != rune(name[j]) {
			return false
		}
	}
	return i == len(key)
}
