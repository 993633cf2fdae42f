// Command fuse runs truth discovery over a JSONL dataset (the store file
// schema, as written by datagen or a fused persist) and emits the scored
// triples in the same schema, so its output feeds fused -store or another
// fuse run.
//
// Usage:
//
//	fuse -in data.jsonl [-method precrec|corr|aggressive|elastic|union|3est|ltm]
//	     [-alpha 0.5] [-union-k 50] [-level 3] [-scope global|subject]
//	     [-smoothing 0] [-out fused.jsonl] [-accepted-only]
//
// The input's gold labels (where present) are used as training data for the
// supervised methods; output rows carry the input's sources and label plus
// the computed probability and the accept decision.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"corrfuse"
	"corrfuse/internal/dataset"
	"corrfuse/internal/store"
)

func main() {
	in := flag.String("in", "", "input dataset (JSONL; required)")
	out := flag.String("out", "", "output path (default stdout)")
	method := flag.String("method", "corr", "fusion method: precrec, corr, aggressive, elastic, union, 3est, ltm")
	alpha := flag.Float64("alpha", 0, "a-priori truth probability (0 = derive from labels)")
	unionK := flag.Int("union-k", 50, "acceptance percentage for -method union")
	level := flag.Int("level", 3, "elastic approximation level for -method elastic")
	scope := flag.String("scope", "global", "accountability scope: global or subject")
	smoothing := flag.Float64("smoothing", 0, "add-k smoothing for quality estimation")
	acceptedOnly := flag.Bool("accepted-only", false, "emit only accepted triples")
	flag.Parse()

	if err := run(*in, *out, *method, *alpha, *unionK, *level, *scope, *smoothing, *acceptedOnly); err != nil {
		fmt.Fprintln(os.Stderr, "fuse:", err)
		os.Exit(1)
	}
}

// createFile opens the -out file; a variable so a test can hand run a file
// whose Close fails.
var createFile = func(path string) (io.WriteCloser, error) { return os.Create(path) }

func run(in, out, method string, alpha float64, unionK, level int, scopeName string, smoothing float64, acceptedOnly bool) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	d, err := dataset.ReadFile(in)
	if err != nil {
		return err
	}

	opts := corrfuse.Options{
		UnionK:       unionK,
		ElasticLevel: level,
		Smoothing:    smoothing,
	}
	if opts.Method, err = corrfuse.ParseMethod(method); err != nil {
		return err
	}
	switch scopeName {
	case "global", "":
	case "subject":
		opts.Scope = corrfuse.NewScopeSubject(d)
	default:
		return fmt.Errorf("unknown scope %q", scopeName)
	}
	if opts.Alpha = alpha; alpha == 0 {
		opts.Alpha = corrfuse.DeriveAlpha(d.CountLabels())
	}

	fuser, err := corrfuse.New(d, opts)
	if err != nil {
		return err
	}
	res, err := fuser.Fuse()
	if err != nil {
		return err
	}

	rows := res.All
	if acceptedOnly {
		rows = res.Accepted
	}
	// The decision is looked up by ID: UnionK accepts by provider count, so
	// Accepted need not be the top of the probability ranking.
	accepted := make([]bool, d.NumTriples())
	for _, r := range res.Accepted {
		accepted[r.ID] = true
	}

	var w io.WriteCloser = os.Stdout
	if out != "" {
		if w, err = createFile(out); err != nil {
			return err
		}
	}
	// One name list serves every row: the writer encodes a record before it
	// asks for the next.
	var names []string
	err = store.WriteRecords(w, len(rows), func(i int, rec *store.Record) {
		r := rows[i]
		names = names[:0]
		for _, s := range d.Providers(r.ID) {
			names = append(names, d.SourceName(s))
		}
		sort.Strings(names) // the order Store.Put keeps, so fuse -out ≡ store.Save
		*rec = store.Record{
			Subject: r.Triple.Subject, Predicate: r.Triple.Predicate, Object: r.Triple.Object,
			Sources: names, Label: d.Label(r.ID).Gold(), Probability: r.Probability, Accepted: accepted[r.ID],
		}
	})
	if out != "" {
		// A write the kernel deferred (quota, NFS) fails here, not above.
		err = errors.Join(err, w.Close())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fuse: %s over %d sources, %d triples → %d accepted\n",
		fuser.MethodName(), d.NumSources(), len(res.All), len(res.Accepted))
	return nil
}
