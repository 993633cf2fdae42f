package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"corrfuse/internal/triple"
)

func buildDataset(subjects, sourcesN int) *triple.Dataset {
	d := triple.NewDataset()
	srcs := make([]triple.SourceID, sourcesN)
	for i := range srcs {
		srcs[i] = d.AddSource(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < subjects; i++ {
		t := triple.Triple{Subject: fmt.Sprintf("e%d", i), Predicate: "p", Object: "v"}
		for j := 0; j <= i%sourcesN; j++ {
			d.Observe(srcs[j], t)
		}
		switch i % 3 {
		case 0:
			d.SetLabel(t, triple.True)
		case 1:
			d.SetLabel(t, triple.False)
		}
	}
	// A gold triple no source provides.
	d.SetLabel(triple.Triple{Subject: "gold-only", Predicate: "p", Object: "v"}, triple.True)
	return d
}

func TestOfDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17} {
		for i := 0; i < 100; i++ {
			sub := fmt.Sprintf("subject-%d", i)
			got := Of(sub, n)
			if got < 0 || got >= n {
				t.Fatalf("Of(%q, %d) = %d out of range", sub, n, got)
			}
			if again := Of(sub, n); again != got {
				t.Fatalf("Of(%q, %d) not deterministic: %d then %d", sub, n, got, again)
			}
		}
	}
	if Of("anything", 0) != 0 || Of("anything", 1) != 0 {
		t.Fatal("n <= 1 must route everything to shard 0")
	}
}

func TestPartitionInvariants(t *testing.T) {
	d := buildDataset(200, 7)
	for _, n := range []int{1, 2, 4, 9} {
		p := New(d, n, 2)
		if p.NumShards() != n {
			t.Fatalf("NumShards = %d, want %d", p.NumShards(), n)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPartitionSpreadsSubjects(t *testing.T) {
	d := buildDataset(400, 5)
	p := New(d, 4, 0)
	for i := 0; i < p.NumShards(); i++ {
		if p.Shard(i).NumTriples() == 0 {
			t.Errorf("shard %d is empty over 400 subjects", i)
		}
	}
}

func TestPartitionKeepsSubjectsTogether(t *testing.T) {
	d := triple.NewDataset()
	s := d.AddSource("s")
	for i := 0; i < 50; i++ {
		sub := fmt.Sprintf("e%d", i%10) // 10 subjects, 5 predicates each
		d.Observe(s, triple.Triple{Subject: sub, Predicate: fmt.Sprintf("p%d", i/10), Object: "v"})
	}
	p := New(d, 4, 0)
	bySubject := make(map[string]int)
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		si, _ := p.Locate(id)
		sub := d.Triple(id).Subject
		if prev, ok := bySubject[sub]; ok && prev != si {
			t.Fatalf("subject %q split across shards %d and %d", sub, prev, si)
		}
		bySubject[sub] = si
	}
}

func TestForEachCoversAllAndParallel(t *testing.T) {
	const n = 1000
	var hit [n]atomic.Int32
	if err := ForEach(n, 8, func(i int) error {
		hit[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hit {
		if got := hit[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	// Serial path.
	count := 0
	if err := ForEach(5, 1, func(i int) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("serial ForEach ran %d of 5", count)
	}
}

func TestForEachFirstError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(100, 4, func(i int) error {
		if i == 37 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if err := ForEach(3, 1, func(i int) error {
		if i == 1 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("serial err = %v, want boom", err)
	}
}

// mutatedCopy clones d and adds fresh observations on existing subjects
// routed to the given shards (under an n-way partition), returning the new
// dataset and the set of shards actually touched.
func mutatedCopy(t *testing.T, d *triple.Dataset, n int, touch map[int]bool) *triple.Dataset {
	t.Helper()
	d2 := d.Clone()
	touched := map[int]bool{}
	for i := 0; i < d.NumTriples(); i++ {
		sub := d.Triple(triple.TripleID(i)).Subject
		si := Of(sub, n)
		if !touch[si] || touched[si] {
			continue
		}
		touched[si] = true
		d2.Observe(0, triple.Triple{Subject: sub, Predicate: "p-new", Object: "v"})
	}
	if len(touched) != len(touch) {
		t.Fatalf("touched shards %v, wanted %v", touched, touch)
	}
	return d2
}

func TestRebuildPartialAdoptsUnchangedShards(t *testing.T) {
	const n = 4
	d := buildDataset(200, 7)
	prev := New(d, n, 2)
	dirty := map[int]bool{1: true, 3: true}
	d2 := mutatedCopy(t, d, n, dirty)

	keep := make([]bool, n)
	for i := range keep {
		keep[i] = !dirty[i]
	}
	p, reused := RebuildPartial(d2, n, prev, keep, 2)
	if err := p.Validate(); err != nil {
		t.Fatalf("partial partition invalid: %v", err)
	}
	for si := 0; si < n; si++ {
		if dirty[si] {
			if reused[si] {
				t.Errorf("dirty shard %d reported reused", si)
			}
			if p.Shard(si) == prev.Shard(si) {
				t.Errorf("dirty shard %d adopted the stale dataset", si)
			}
		} else {
			if !reused[si] {
				t.Errorf("clean shard %d not reused", si)
			}
			if p.Shard(si) != prev.Shard(si) {
				t.Errorf("clean shard %d rebuilt instead of adopted", si)
			}
		}
	}
	// The partial partition must equal a from-scratch one shard for shard.
	full := New(d2, n, 2)
	for i := 0; i < d2.NumTriples(); i++ {
		id := triple.TripleID(i)
		psi, plid := p.Locate(id)
		fsi, flid := full.Locate(id)
		if psi != fsi || plid != flid {
			t.Fatalf("triple %d located at (%d,%d) partial vs (%d,%d) full", id, psi, plid, fsi, flid)
		}
	}
}

// TestRebuildPartialVerifiesKeepClaim: a wrong keep claim (the shard did
// change) must degrade to a rebuild, never adopt stale data.
func TestRebuildPartialVerifiesKeepClaim(t *testing.T) {
	const n = 4
	d := buildDataset(120, 5)
	prev := New(d, n, 1)
	d2 := mutatedCopy(t, d, n, map[int]bool{2: true})

	keep := []bool{true, true, true, true} // lies about shard 2
	p, reused := RebuildPartial(d2, n, prev, keep, 1)
	if reused[2] {
		t.Fatal("changed shard adopted on a false keep claim")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Label changes must be caught too, not only new triples.
	d3 := d.Clone()
	var relabeled bool
	for i := 0; i < d.NumTriples() && !relabeled; i++ {
		id := triple.TripleID(i)
		tr := d.Triple(id)
		if Of(tr.Subject, n) == 0 && d.Label(id) == triple.Unknown {
			d3.SetLabel(tr, triple.False)
			relabeled = true
		}
	}
	if !relabeled {
		t.Fatal("no unlabeled triple in shard 0 to relabel")
	}
	_, reused = RebuildPartial(d3, n, prev, keep, 1)
	if reused[0] {
		t.Fatal("relabeled shard adopted")
	}
	for si := 1; si < n; si++ {
		if !reused[si] {
			t.Errorf("untouched shard %d rebuilt", si)
		}
	}
}

// TestRebuildPartialNewSourceBlocksAdoption: shard datasets register the
// full source table, so a new source invalidates every shard.
func TestRebuildPartialNewSourceBlocksAdoption(t *testing.T) {
	const n = 3
	d := buildDataset(90, 4)
	prev := New(d, n, 1)
	d2 := d.Clone()
	s := d2.AddSource("brand-new")
	d2.Observe(s, triple.Triple{Subject: "e0", Predicate: "p2", Object: "v"})

	p, reused := RebuildPartial(d2, n, prev, []bool{true, true, true}, 1)
	if SourceTablesEqual(d2, d) {
		t.Error("changed source table reported equal")
	}
	for si, r := range reused {
		if r {
			t.Errorf("shard %d adopted across a source-table change", si)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionTimings: both build paths record their stage costs — the
// routing pass and the dataset builds both do real work here, so the
// recorded durations must be positive and the zero value must be gone.
func TestPartitionTimings(t *testing.T) {
	d := buildDataset(2000, 5)
	p := New(d, 4, 2)
	tm := p.Timings()
	if tm.Route <= 0 || tm.Build <= 0 {
		t.Fatalf("New timings not recorded: %+v", tm)
	}

	keep := []bool{true, true, true, true}
	p2, _ := RebuildPartial(d, 4, p, keep, 2)
	tm2 := p2.Timings()
	if tm2.Route <= 0 || tm2.Build <= 0 {
		t.Fatalf("RebuildPartial timings not recorded: %+v", tm2)
	}
}

// TestOneWayPartitionIsTheDataset: a one-way partition adopts the dataset
// itself as shard 0 under identity ID maps (no copy), and its adoption check
// still verifies the keep claim against the previous capture.
func TestOneWayPartitionIsTheDataset(t *testing.T) {
	d := buildDataset(120, 5)
	p := New(d, 1, 2)
	if p.Shard(0) != d {
		t.Fatal("the only shard of a one-way partition is not the dataset itself")
	}
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		if si, lid := p.Locate(id); si != 0 || lid != id || p.GlobalID(0, lid) != id {
			t.Fatalf("triple %d: one-way ID maps are not the identity", id)
		}
	}
	same, reused := RebuildPartial(d.Clone(), 1, p, []bool{true}, 2)
	if !reused[0] || same.Shard(0) != d {
		t.Fatal("unchanged capture did not adopt the previous shard")
	}
	d2 := mutatedCopy(t, d, 1, map[int]bool{0: true})
	changed, reused := RebuildPartial(d2, 1, p, []bool{true}, 2)
	if reused[0] || changed.Shard(0) != d2 {
		t.Fatal("changed capture adopted the stale shard on a false keep claim")
	}
	if err := changed.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildShardEqualsObserveLoop: every shard the row insert builds is the
// dataset buildShard's per-pair Observe/SetLabel loop (kept here as the
// reference) built, ID for ID — labeled, unlabeled and label-only triples.
func TestBuildShardEqualsObserveLoop(t *testing.T) {
	d := buildDataset(300, 7)
	const n = 4
	p := New(d, n, 1)
	for si := 0; si < n; si++ {
		want := triple.NewDataset()
		for _, s := range d.Sources() {
			want.AddSource(s.Name)
		}
		for i := 0; i < d.NumTriples(); i++ {
			id := triple.TripleID(i)
			if tr := d.Triple(id); Of(tr.Subject, n) == si {
				for _, s := range d.Providers(id) {
					want.Observe(s, tr)
				}
				if l := d.Label(id); l != triple.Unknown || len(d.Providers(id)) == 0 {
					want.SetLabel(tr, l)
				}
			}
		}
		got := p.Shard(si)
		if got.NumTriples() != want.NumTriples() || got.NumTriples() == 0 || !SourceTablesEqual(got, want) {
			t.Fatalf("shard %d: %d triples, the loop built %d", si, got.NumTriples(), want.NumTriples())
		}
		for i := 0; i < want.NumTriples(); i++ {
			id := triple.TripleID(i)
			if got.Triple(id) != want.Triple(id) || got.Label(id) != want.Label(id) || !slices.Equal(got.Providers(id), want.Providers(id)) {
				t.Fatalf("shard %d, triple %d: %v %v %v, the loop built %v %v %v", si, id,
					got.Triple(id), got.Label(id), got.Providers(id), want.Triple(id), want.Label(id), want.Providers(id))
			}
		}
		for _, s := range want.Sources() {
			if !slices.Equal(got.Output(s.ID), want.Output(s.ID)) {
				t.Fatalf("shard %d: output of %s differs", si, s.Name)
			}
		}
	}
}
