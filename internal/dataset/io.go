package dataset

import (
	"fmt"
	"io"
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
// store.Save; fusion results are ignored) into a Dataset.
func Read(r io.Reader) (*triple.Dataset, error) {
	d := triple.NewDataset()
	err := store.ReadRecords(r, func(rec *store.Record) {
		t := triple.Triple{Subject: rec.Subject, Predicate: rec.Predicate, Object: rec.Object}
		for _, name := range rec.Sources {
			d.Observe(d.AddSource(name), t)
		}
		// An unlabeled row keeps whatever label an earlier row set; with no
		// sources either, SetLabel interns it so unprovided rows round-trip.
		if l, _ := triple.ParseGold(rec.Label); l != triple.Unknown || len(rec.Sources) == 0 {
			d.SetLabel(t, l)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return d, nil
}
