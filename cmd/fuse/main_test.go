package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"corrfuse"
	"corrfuse/internal/dataset"
	"corrfuse/internal/serve"
	"corrfuse/internal/store"
)

func writeInput(t *testing.T) string {
	t.Helper()
	d, err := dataset.SimulatedRestaurant(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.Write(f, d); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestRunAllMethods(t *testing.T) {
	in := writeInput(t)
	for _, method := range []string{"precrec", "corr", "aggressive", "elastic", "union", "3est", "ltm"} {
		out := filepath.Join(t.TempDir(), method+".jsonl")
		if err := run(in, out, method, 0, 50, 2, "global", 0, false); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		st, err := store.Load(out)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if st.Len() == 0 {
			t.Errorf("%s produced no output", method)
		}
	}
}

func TestRunSubjectScopeAndAcceptedOnly(t *testing.T) {
	in := writeInput(t)
	out := filepath.Join(t.TempDir(), "out.jsonl")
	if err := run(in, out, "corr", 0.7, 50, 3, "subject", 0.5, true); err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st.Accepted() {
		if !e.Accepted {
			t.Fatal("accepted-only output contains rejected entries")
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", "corr", 0, 50, 3, "global", 0, false); err == nil {
		t.Error("missing input should fail")
	}
	if err := run("/nonexistent.jsonl", "", "corr", 0, 50, 3, "global", 0, false); err == nil {
		t.Error("unreadable input should fail")
	}
	in := writeInput(t)
	if err := run(in, "", "nope", 0, 50, 3, "global", 0, false); err == nil {
		t.Error("unknown method should fail")
	}
	if err := run(in, "", "corr", 0, 50, 3, "sideways", 0, false); err == nil {
		t.Error("unknown scope should fail")
	}
}

// failingClose is an -out file whose deferred write fails at Close, the way
// a quota or an NFS server reports it.
type failingClose struct {
	io.Writer
	closed bool
}

var errDeferredWrite = errors.New("close: disk quota exceeded")

func (f *failingClose) Close() error {
	f.closed = true
	return errDeferredWrite
}

// TestRunReportsCloseFailure: a run whose output file fails to close is a
// failed run, not an exit 0 over a file that may be short.
func TestRunReportsCloseFailure(t *testing.T) {
	in := writeInput(t)
	file := &failingClose{Writer: io.Discard}
	defer func(orig func(string) (io.WriteCloser, error)) { createFile = orig }(createFile)
	createFile = func(string) (io.WriteCloser, error) { return file, nil }
	err := run(in, "out.jsonl", "precrec", 0, 50, 3, "global", 0, false)
	if !errors.Is(err, errDeferredWrite) || !file.closed {
		t.Fatalf("run = %v (file closed: %v), want the Close error", err, file.closed)
	}
}

// readRecords indexes a store-schema file by triple key.
func readRecords(t *testing.T, path string) map[string]store.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]store.Record)
	err = store.ReadRecords(f, func(rec *store.Record) {
		out[rec.Subject+"\x00"+rec.Predicate+"\x00"+rec.Object] = *rec
	})
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return out
}

// TestOutputFeedsFused is the datagen → fuse -out → fused round trip: the
// output keeps the input's sources and gold labels (it used to drop the
// labels, so fused could not train on it), a datagen line, a fuse -out line
// and a store.Save line of the same triple decode to the same record, and a
// server trains on the file.
func TestOutputFeedsFused(t *testing.T) {
	in := writeInput(t)
	out := filepath.Join(t.TempDir(), "fused.jsonl")
	if err := run(in, out, "corr", 0, 50, 3, "global", 0.1, false); err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "saved.jsonl")
	if err := st.Save(saved); err != nil {
		t.Fatal(err)
	}

	input, fused, resaved := readRecords(t, in), readRecords(t, out), readRecords(t, saved)
	if len(fused) == 0 || len(fused) != len(resaved) {
		t.Fatalf("fuse wrote %d records, store.Save %d", len(fused), len(resaved))
	}
	labeled := 0
	for key, f := range fused {
		if !reflect.DeepEqual(f, resaved[key]) {
			t.Fatalf("fuse -out line and store.Save line differ:\n  %+v\n  %+v", f, resaved[key])
		}
		if f.Label != "" {
			labeled++
		}
		f.Probability, f.Accepted = 0, false
		if !reflect.DeepEqual(f, input[key]) {
			t.Fatalf("fuse -out changed the input record:\n  in  %+v\n  out %+v", input[key], f)
		}
	}
	if labeled == 0 {
		t.Fatal("fuse output carries no gold labels")
	}

	srv, err := serve.New(st, serve.Config{
		Options:         corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1},
		PenalizeSilence: true,
	})
	if err != nil {
		t.Fatalf("fused cannot train on fuse output: %v", err)
	}
	if seq, _, _ := srv.Snapshot(); seq != 1 {
		t.Fatalf("snapshot seq = %d, want 1", seq)
	}
}

// pinnedSpec is the dataset the output hashes below were recorded on: ten
// sources in one cluster, a group correlated on true triples, one on false
// ones, and a source whose mistakes are disjoint from the others'.
func pinnedSpec() dataset.SyntheticSpec {
	spec := dataset.SyntheticSpec{NumTrue: 1500, NumFalse: 1500, Seed: 16, SubjectPrefix: "fact"}
	for i := 0; i < 10; i++ {
		spec.Sources = append(spec.Sources, dataset.SourceSpec{
			Precision:   0.55 + 0.03*float64(i),
			Recall:      0.25 + 0.03*float64((i*3)%10),
			FalseWindow: dataset.Window{Lo: 0, Hi: 0.8},
		})
	}
	spec.Sources[9].FalseWindow = dataset.Window{Lo: 0.75, Hi: 1}
	spec.Groups = []dataset.GroupSpec{
		{Members: []int{0, 1, 2, 3}, OnTrue: true, Strength: 0.7},
		{Members: []int{4, 5, 6}, OnTrue: false, Strength: 0.7},
	}
	return spec
}

// TestOutputBytesPinned holds fuse's output to recorded bytes (sha256): the
// kernel and the output path may get faster, the answer file may not change.
// elastic and the subject-scoped corr run are the bytes the commit before the
// dense joint tables and the streamed writer produced. The global corr run
// was re-pinned once, when exact scoring moved to per-cluster µ tables: of
// 2 707 rows, 1 337 probabilities moved by at most 3.6e-15 and 8 decisions
// flipped, each a tie with |p − 0.5| ≤ 1.1e-15 on both sides; sources,
// labels and the row set are unchanged, and rows changed places only with
// rows whose old probabilities were within 1.6e-15 of theirs. The precrec,
// aggressive and subject-scoped precrec rows were first pinned when both
// methods moved to the per-source log-ratio table: against the per-source
// loop and the per-pattern weighted product before it, the subject-scoped
// bytes are unchanged, and of the global runs' 2 707 rows, 564 (precrec) and
// 1 879 (aggressive) probabilities moved, by at most 2.3e-16, with no
// decision flipped and no row moved.
func TestOutputBytesPinned(t *testing.T) {
	d, err := dataset.Generate(pinnedSpec())
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "in.jsonl")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.Write(f, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, method, scope string
		acceptedOnly        bool
		want                string
	}{
		{"corr", "corr", "global", false, "7faa15001e1fdcd1df0d0b469fd39b5d62f0042bd17cdfd3978e374e2427ae8b"},
		{"elastic", "elastic", "global", false, "d325879e5f90beb71fb17f075587c1b66b212fe26b0732b78b853256ba98fcc5"},
		{"corr-subject-accepted", "corr", "subject", true, "e8dfa4fe736f82b8fef9c93b51dd6e256f55d78ebc6fae5af3b00c3ca0e66850"},
		{"precrec", "precrec", "global", false, "e6ab17f9159540f6abe557827c4753471fae6cd84bf64a3ed51f838fb1389204"},
		{"aggressive", "aggressive", "global", false, "68534e9fd610186a9aecf8f0b01e7a50759e2b5fe578067336620e6dfe31db2e"},
		{"precrec-subject", "precrec", "subject", false, "4ec893c9fd4facb4e01ccc7f14c77760ebf1c9f4ef81d3ef3a183fe1d4ccceb1"},
	} {
		out := filepath.Join(t.TempDir(), tc.name+".jsonl")
		if err := run(in, out, tc.method, 0, 50, 3, tc.scope, 0, tc.acceptedOnly); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != tc.want {
			t.Errorf("%s: output sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
