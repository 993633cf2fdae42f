package dataset

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// Write serializes d as JSON Lines in the store file schema: one
// store.Record per triple, in TripleID order.
func Write(w io.Writer, d *triple.Dataset) error {
	err := store.WriteRecords(w, d.NumTriples(), func(i int, rec *store.Record) {
		id := triple.TripleID(i)
		t := d.Triple(id)
		rec.Subject, rec.Predicate, rec.Object = t.Subject, t.Predicate, t.Object
		for _, s := range d.Providers(id) {
			rec.Sources = append(rec.Sources, d.SourceName(s))
		}
		sort.Strings(rec.Sources)
		rec.Label = d.Label(id).Gold()
	})
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// Read parses a store-schema JSONL stream (as written by Write, fuse or
// store.Save; fusion results are ignored) into a Dataset. Sources and
// triples take their IDs in order of first appearance in the stream.
func Read(r io.Reader) (*triple.Dataset, error) {
	return readInto(triple.NewDataset(), r)
}

// ReadFile is Read over the named file, read whole in one file-sized
// buffer, into a dataset sized once from the file's line count.
func ReadFile(path string) (*triple.Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readInto(triple.NewDatasetCap(0, bytes.Count(data, []byte{'\n'})+1), bytes.NewReader(data))
}

func readInto(d *triple.Dataset, r io.Reader) (*triple.Dataset, error) {
	err := store.ReadRecords(r, func(rec *store.Record) {
		// InsertNamedRow's label rule is this file format's: an unlabeled row
		// keeps whatever label an earlier row set, and a row with no sources
		// is interned all the same, so unprovided rows round-trip.
		l, _ := triple.ParseGold(rec.Label)
		d.InsertNamedRow(triple.Triple{Subject: rec.Subject, Predicate: rec.Predicate, Object: rec.Object}, rec.Sources, l)
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return d, nil
}
