package dataset

import (
	"bytes"
	"cmp"
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

// readBatch is how many decoded rows the decoder hands to the inserter at a
// time; readSlots batches cycle between the two (two queued, one filling).
const (
	readBatch = 1024
	readSlots = 3
)

// row is one decoded record as the dataset takes it, with its line number.
type row struct {
	t       triple.Triple
	sources []string
	label   triple.Label
	line    int
}

// readInto decodes on one goroutine while it inserts on the caller's: the
// decoder runs store.ReadRecords over the whole stream — so line numbers
// and errors are exactly its own — and fills batches of readBatch rows,
// which the caller inserts in stream order. The batches cycle through a
// free list of readSlots, so memory stays bounded whatever the stream's
// length; the decoder has returned by the time readInto does. A row whose
// gold label contradicts the one an earlier row gave its triple fails the
// read, as store.Read fails it.
func readInto(d *triple.Dataset, r io.Reader) (*triple.Dataset, error) {
	free := make(chan []row, readSlots)
	for i := 0; i < readSlots; i++ {
		free <- make([]row, 0, readBatch)
	}
	full := make(chan []row, readSlots-1)
	done := make(chan error, 1)
	go func() {
		defer close(full)
		batch := <-free
		err := store.ReadRecords(r, func(line int, rec *store.Record) error {
			// The label rule is this file format's: an unlabeled row keeps
			// whatever label an earlier row set (InsertNamedRow), and a row
			// with no sources is interned all the same, so unprovided rows
			// round-trip. Sources is the record's own slice, not reused.
			l, _ := triple.ParseGold(rec.Label)
			batch = append(batch, row{triple.Triple{Subject: rec.Subject, Predicate: rec.Predicate, Object: rec.Object}, rec.Sources, l, line})
			if len(batch) == readBatch {
				full <- batch
				batch = (<-free)[:0]
			}
			return nil
		})
		if err == nil && len(batch) > 0 {
			full <- batch
		}
		done <- err
	}()
	var conflict error
	for batch := range full {
		for i := 0; i < len(batch) && conflict == nil; i++ {
			rec := &batch[i]
			if _, prev := d.InsertNamedRow(rec.t, rec.sources, rec.label); prev != triple.Unknown && rec.label != triple.Unknown && prev != rec.label {
				conflict = fmt.Errorf("line %d: conflicting gold labels for %v: %q then %q", rec.line, rec.t, prev.Gold(), rec.label.Gold())
			}
		}
		free <- batch
	}
	// Every row inserted precedes the line the decoder failed on, if any,
	// so a conflict is the stream's first error.
	if err := <-done; conflict != nil || err != nil {
		return nil, fmt.Errorf("dataset: %w", cmp.Or(conflict, err))
	}
	return d, nil
}
