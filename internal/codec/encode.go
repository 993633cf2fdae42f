package codec

import (
	"math"
	"strconv"
	"unicode/utf8"

	"corrfuse/internal/index"
	"corrfuse/internal/triple"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, byte-identical to what
// encoding/json emits with EscapeHTML disabled: quotes and backslashes
// escaped, control bytes as \u00XX (\b, \f, \n, \r, \t named), invalid
// UTF-8 coerced to \ufffd, and U+2028/U+2029 escaped for JS embedding.
// It is the wire encoder's string form.
//
//corrfuse:hotpath
func AppendString(dst []byte, s string) []byte {
	return appendString(dst, s, &safeASCII)
}

// AppendStringHTML is AppendString with encoding/json's default
// EscapeHTML on, as json.Marshal and json.Encoder write strings: <, > and &
// also become \u003c, \u003e and \u0026. Store files and WAL lines are
// written with it, so their bytes are what encoding/json wrote.
//
//corrfuse:hotpath
func AppendStringHTML(dst []byte, s string) []byte {
	return appendString(dst, s, &htmlSafeASCII)
}

// safeASCII[b] reports whether AppendString copies the ASCII byte b
// through unescaped; htmlSafeASCII is the same for AppendStringHTML.
var safeASCII, htmlSafeASCII [utf8.RuneSelf]bool

func init() {
	for b := byte(0x20); b < utf8.RuneSelf; b++ {
		safeASCII[b] = b != '"' && b != '\\'
		htmlSafeASCII[b] = safeASCII[b] && b != '<' && b != '>' && b != '&'
	}
}

//corrfuse:hotpath
func appendString(dst []byte, s string, safe *[utf8.RuneSelf]bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // the other control bytes, and <, > and & when escaping HTML
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f with encoding/json's float64 formatting: shortest
// 'f' form, switching to exponent form below 1e-6 and at 1e21, with the
// exponent's leading zero stripped (e-09 becomes e-9). Non-finite values
// — which encoding/json refuses to marshal at all — append null; the
// fusion model never produces them (probabilities live in [0, 1]).
//
//corrfuse:hotpath
func AppendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, 'n', 'u', 'l', 'l')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendUint appends v in decimal.
//
//corrfuse:hotpath
func AppendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// AppendBool appends v as true or false.
//
//corrfuse:hotpath
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 't', 'r', 'u', 'e')
	}
	return append(dst, 'f', 'a', 'l', 's', 'e')
}

// appendTriple appends a triple.Triple with encoding/json's field names —
// the struct carries no tags, so the exported names are the wire shape.
//
//corrfuse:hotpath
func appendTriple(dst []byte, t triple.Triple) []byte {
	dst = append(dst, `{"Subject":`...)
	dst = AppendString(dst, t.Subject)
	dst = append(dst, `,"Predicate":`...)
	dst = AppendString(dst, t.Predicate)
	dst = append(dst, `,"Object":`...)
	dst = AppendString(dst, t.Object)
	return append(dst, '}')
}

// AppendScoreResponse appends the complete /v1/score 200 body, trailing
// newline included (matching json.Encoder's framing).
//
//corrfuse:hotpath
func AppendScoreResponse(dst []byte, results []ScoreResult, snapshotSeq, snapshotVersion, indexVersion uint64) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		r := &results[i]
		dst = append(dst, `{"triple":`...)
		dst = appendTriple(dst, r.Triple)
		dst = append(dst, `,"probability":`...)
		dst = AppendFloat(dst, r.Probability)
		dst = append(dst, `,"basis":`...)
		dst = AppendString(dst, r.Basis)
		if r.Accepted != nil {
			dst = append(dst, `,"accepted":`...)
			dst = AppendBool(dst, *r.Accepted)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"snapshotSeq":`...)
	dst = AppendUint(dst, snapshotSeq)
	dst = append(dst, `,"snapshotVersion":`...)
	dst = AppendUint(dst, snapshotVersion)
	dst = append(dst, `,"indexVersion":`...)
	dst = AppendUint(dst, indexVersion)
	return append(dst, '}', '\n')
}

// AppendObserveResponse appends the complete /v1/observe 200 body. walSeq
// is emitted only when withWALSeq is set (the server runs with a WAL).
//
//corrfuse:hotpath
func AppendObserveResponse(dst []byte, results []ObserveResult, snapshotSeq, walSeq uint64, withWALSeq bool) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		r := &results[i]
		dst = append(dst, `{"triple":`...)
		dst = appendTriple(dst, r.Triple)
		dst = append(dst, `,"probability":`...)
		dst = AppendFloat(dst, r.Probability)
		dst = append(dst, `,"live":`...)
		dst = AppendBool(dst, r.Live)
		if r.PendingSource {
			dst = append(dst, `,"pendingSource":true`...)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"snapshotSeq":`...)
	dst = AppendUint(dst, snapshotSeq)
	if withWALSeq {
		dst = append(dst, `,"walSeq":`...)
		dst = AppendUint(dst, walSeq)
	}
	return append(dst, '}', '\n')
}

// AppendEntriesResponse appends the complete /v1/subject and /v1/source
// 200 body: pre-ranked index entries plus the generation trailer proving
// snapshot and index belong together.
//
//corrfuse:hotpath
func AppendEntriesResponse(dst []byte, entries []*index.Entry, snapshotSeq, snapshotVersion, indexVersion uint64) []byte {
	dst = append(dst, `{"results":[`...)
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"triple":`...)
		dst = appendTriple(dst, e.Triple)
		if len(e.Sources) > 0 {
			dst = append(dst, `,"sources":[`...)
			for j, src := range e.Sources {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = AppendString(dst, src)
			}
			dst = append(dst, ']')
		}
		if e.Label != "" {
			dst = append(dst, `,"label":`...)
			dst = AppendString(dst, e.Label)
		}
		dst = append(dst, `,"probability":`...)
		dst = AppendFloat(dst, e.Probability)
		dst = append(dst, `,"accepted":`...)
		dst = AppendBool(dst, e.Accepted)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"snapshotSeq":`...)
	dst = AppendUint(dst, snapshotSeq)
	dst = append(dst, `,"snapshotVersion":`...)
	dst = AppendUint(dst, snapshotVersion)
	dst = append(dst, `,"indexVersion":`...)
	dst = AppendUint(dst, indexVersion)
	return append(dst, '}', '\n')
}
