package wal

// The line codec. A line is {"crc":N,"rec":R} and a newline, where R is the
// record as json.Marshal writes a Record and N is the IEEE CRC32 of R's
// exact bytes. appendLine writes those bytes without reflection; decodeLine
// accepts exactly the lines that decoding the envelope (R held as a
// json.RawMessage) and then R with encoding/json accepted, and returns the
// same Record. The fuzzers in line_test.go hold both directions to that
// reference.

import (
	"errors"
	"fmt"
	"hash/crc32"

	"corrfuse/internal/codec"
)

// appendRecord appends r as json.Marshal writes a Record: fields in
// declaration order, label omitted when empty, HTML-safe string escapes.
//
//corrfuse:hotpath
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, `{"seq":`...)
	dst = codec.AppendUint(dst, r.Seq)
	dst = append(dst, `,"source":`...)
	dst = codec.AppendStringHTML(dst, r.Source)
	dst = append(dst, `,"subject":`...)
	dst = codec.AppendStringHTML(dst, r.Subject)
	dst = append(dst, `,"predicate":`...)
	dst = codec.AppendStringHTML(dst, r.Predicate)
	dst = append(dst, `,"object":`...)
	dst = codec.AppendStringHTML(dst, r.Object)
	if r.Label != "" {
		dst = append(dst, `,"label":`...)
		dst = codec.AppendStringHTML(dst, r.Label)
	}
	return append(dst, '}')
}

// appendLine appends the line enveloping rec, a record as appendRecord
// writes it, newline included. rec may alias dst's contents.
//
//corrfuse:hotpath
func appendLine(dst, rec []byte) []byte {
	dst = append(dst, `{"crc":`...)
	dst = codec.AppendUint(dst, uint64(crc32.ChecksumIEEE(rec)))
	dst = append(dst, `,"rec":`...)
	dst = append(dst, rec...)
	return append(dst, '}', '\n')
}

// decodeLine parses and verifies one line (without its newline) and returns
// the record's sequence number. When rec is non-nil the whole record is
// stored there, its source, predicate, object and label read through in (a
// nil in interns nothing); when rec is nil the record's strings are checked
// but not built, so verifying a line allocates nothing.
//
// Keys match as encoding/json matches them (case-folded, unknown ones
// skipped, the last duplicate winning), null leaves a field as it was, and
// "crc" and "seq" must be exact unsigned integers of their field's size.
func decodeLine(raw []byte, in *codec.Interner, rec *Record) (uint64, error) {
	var (
		crc    uint64
		recRaw []byte
	)
	d := codec.NewDecoder(raw)
	err := d.Object(func(key []byte) error {
		var err error
		switch {
		case codec.KeyIs(key, "crc"):
			var isNull bool
			if isNull, err = d.Null(); err == nil && !isNull {
				crc, err = d.Uint(32)
			}
		case codec.KeyIs(key, "rec"):
			// A json.RawMessage takes null as the bytes null, not as a no-op.
			recRaw, err = d.Raw()
		default:
			_, err = d.Raw()
		}
		return err
	})
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return 0, fmt.Errorf("parse: %w", err)
	}
	if recRaw == nil {
		return 0, errors.New(`envelope without "rec"`)
	}
	if uint64(crc32.ChecksumIEEE(recRaw)) != crc {
		return 0, errors.New("crc mismatch")
	}
	seq, err := decodeRecord(recRaw, in, rec)
	if err != nil {
		return 0, fmt.Errorf("record: %w", err)
	}
	if seq == 0 {
		return 0, errors.New("record without sequence number")
	}
	return seq, nil
}

// decodeRecord decodes a record's bytes, already known to be one
// well-formed value, as decodeLine describes.
func decodeRecord(raw []byte, in *codec.Interner, rec *Record) (uint64, error) {
	var r Record
	d := codec.NewDecoder(raw)
	err := d.Object(func(key []byte) error {
		isNull, err := d.Null()
		if err != nil || isNull {
			return err
		}
		var dst *string
		sin := in // subjects are mostly distinct: not interned
		switch {
		case codec.KeyIs(key, "seq"):
			r.Seq, err = d.Uint(64)
			return err
		case codec.KeyIs(key, "source"):
			dst = &r.Source
		case codec.KeyIs(key, "subject"):
			dst, sin = &r.Subject, nil
		case codec.KeyIs(key, "predicate"):
			dst = &r.Predicate
		case codec.KeyIs(key, "object"):
			dst = &r.Object
		case codec.KeyIs(key, "label"):
			dst = &r.Label
		default:
			_, err = d.Raw()
			return err
		}
		if rec == nil {
			// Verify only: Raw accepts exactly the strings String does.
			v, err := d.Raw()
			if err == nil && v[0] != '"' {
				err = fmt.Errorf("key %q: want a string, got %s", key, v)
			}
			return err
		}
		*dst, err = d.InternedString(sin)
		return err
	})
	if err != nil {
		return 0, err
	}
	if rec != nil {
		*rec = r
	}
	return r.Seq, nil
}
