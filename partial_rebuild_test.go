// Differential tests for ShardedFuser.RebuildPartial: retraining only the
// dirty shards of a subject-hash partition must reproduce a full sharded
// rebuild exactly (≤ 1e-9) whenever the global quality fallback is unused
// or unchanged, adopt every clean shard's Fuser verbatim, and degrade
// safely when the dirty set understates the change.
package corrfuse_test

import (
	"fmt"
	"math"
	"testing"

	"corrfuse"
	"corrfuse/internal/shard"
)

// shardSubjects returns, per shard of an nShards-way partition, the subjects
// present in d (insertion order).
func shardSubjects(d *corrfuse.Dataset) [][]string {
	out := make([][]string, nShards)
	seen := map[string]bool{}
	for i := 0; i < d.NumTriples(); i++ {
		sub := d.Triple(corrfuse.TripleID(i)).Subject
		if seen[sub] {
			continue
		}
		seen[sub] = true
		g := shard.Of(sub, nShards)
		out[g] = append(out[g], sub)
	}
	return out
}

// addUnlabeledClaims clones d and adds a fresh unlabeled triple per dirty
// shard, observed by that shard group's sources on a subject they already
// cover — the change-confined, label-preserving mutation partial rebuilds
// are exact under.
func addUnlabeledClaims(t *testing.T, d *corrfuse.Dataset, dirty []int) *corrfuse.Dataset {
	t.Helper()
	d2 := d.Clone()
	subs := shardSubjects(d)
	for _, g := range dirty {
		if len(subs[g]) == 0 {
			t.Fatalf("no subject routed to shard %d", g)
		}
		sub := subs[g][0]
		a, _ := d2.SourceID(fmt.Sprintf("copierA-%d", g))
		b, _ := d2.SourceID(fmt.Sprintf("copierB-%d", g))
		tt := corrfuse.Triple{Subject: sub, Predicate: "p-new", Object: "v"}
		d2.Observe(a, tt)
		d2.Observe(b, tt)
	}
	return d2
}

func scoreDiff(t *testing.T, want, got corrfuse.Model, ids []corrfuse.TripleID, tol float64, label string) {
	t.Helper()
	wp := want.Score(ids)
	gp := got.Score(ids)
	for i, id := range ids {
		if diff := math.Abs(wp[i] - gp[i]); diff > tol {
			t.Errorf("%s: %v: full %.12f, partial %.12f (diff %.3g)",
				label, want.Dataset().Triple(id), wp[i], gp[i], diff)
		}
	}
}

func checkReuse(t *testing.T, sf *corrfuse.ShardedFuser, dirty []int) {
	t.Helper()
	dirtySet := map[int]bool{}
	for _, g := range dirty {
		dirtySet[g] = true
	}
	for _, st := range sf.ShardStats() {
		if dirtySet[st.Shard] && st.Reused {
			t.Errorf("dirty shard %d reported reused", st.Shard)
		}
		if !dirtySet[st.Shard] && !st.Reused {
			t.Errorf("clean shard %d was retrained", st.Shard)
		}
	}
}

// TestRebuildPartialMatchesFullRebuild is the acceptance differential: with
// labels (and labeled provenance) unchanged, RebuildPartial over k dirty
// shards equals a full sharded rebuild to 1e-9 — for subject scope (where
// the fallback is never consulted by scoring) and for global scope (where
// the unchanged fallback is reused verbatim), across the supervised methods
// and an unsupervised baseline.
func TestRebuildPartialMatchesFullRebuild(t *testing.T) {
	base := subjectPartitionedDataset(t)
	cases := []struct {
		name    string
		method  corrfuse.Method
		subject bool
		shards  int
		dirty   []int
	}{
		{"PrecRec/subject/1of4", corrfuse.PrecRec, true, nShards, []int{1}},
		{"PrecRecCorr/subject/2of4", corrfuse.PrecRecCorr, true, nShards, []int{0, 2}},
		{"PrecRecCorr/global/1of4", corrfuse.PrecRecCorr, false, nShards, []int{3}},
		{"PrecRecCorrElastic/global/2of4", corrfuse.PrecRecCorrElastic, false, nShards, []int{1, 2}},
		{"ThreeEstimates/global/1of4", corrfuse.ThreeEstimates, false, nShards, []int{0}},
		// One shard: a dirty store is a full rebuild (rebuilt 1, reused 0).
		{"PrecRecCorr/subject/1of1", corrfuse.PrecRecCorr, true, 1, []int{0}},
		{"PrecRecCorr/global/1of1", corrfuse.PrecRecCorr, false, 1, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := corrfuse.Options{
				Method:      tc.method,
				Smoothing:   0.1,
				Shards:      tc.shards,
				Parallelism: nShards,
			}
			if tc.subject {
				opts.Scope = corrfuse.NewScopeSubject(base)
			}
			prev, err := corrfuse.NewSharded(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			d2 := addUnlabeledClaims(t, base, tc.dirty)
			partial, err := prev.RebuildPartial(d2, tc.dirty)
			if err != nil {
				t.Fatal(err)
			}
			full, err := prev.Rebuild(d2)
			if err != nil {
				t.Fatal(err)
			}
			checkReuse(t, partial, tc.dirty)
			scoreDiff(t, full, partial, providedIDs(d2), 1e-9, tc.name)
		})
	}
}

// TestRebuildPartialLabelChangeRederivesFallback: when a dirty shard's
// labeled slice changes, the global fallback estimator is re-derived, so the
// retrained shards still match a full rebuild exactly; clean shards keep
// their adopted models (the documented caveat) and stay within the
// cross-shard divergence bound.
func TestRebuildPartialLabelChangeRederivesFallback(t *testing.T) {
	base := subjectPartitionedDataset(t)
	opts := corrfuse.Options{
		Method:      corrfuse.PrecRecCorr,
		Smoothing:   0.1,
		Shards:      nShards,
		Parallelism: nShards,
	}
	prev, err := corrfuse.NewSharded(base, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Shard 1 gains a freshly labeled false triple from its copier pair:
	// the global estimator's precision counts move, so a stale fallback
	// would be visible in shard 1's own scores under global scope.
	const g = 1
	d2 := base.Clone()
	sub := shardSubjects(base)[g][0]
	a, _ := d2.SourceID(fmt.Sprintf("copierA-%d", g))
	b, _ := d2.SourceID(fmt.Sprintf("copierB-%d", g))
	tt := corrfuse.Triple{Subject: sub, Predicate: "p-mislabeled", Object: "v"}
	d2.Observe(a, tt)
	d2.Observe(b, tt)
	d2.SetLabel(tt, corrfuse.False)

	partial, err := prev.RebuildPartial(d2, []int{g})
	if err != nil {
		t.Fatal(err)
	}
	full, err := prev.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	checkReuse(t, partial, []int{g})

	var dirtyIDs, cleanIDs []corrfuse.TripleID
	for _, id := range providedIDs(d2) {
		if shard.Of(d2.Triple(id).Subject, nShards) == g {
			dirtyIDs = append(dirtyIDs, id)
		} else {
			cleanIDs = append(cleanIDs, id)
		}
	}
	// Retrained shard: exact, proving the fallback was re-derived.
	scoreDiff(t, full, partial, dirtyIDs, 1e-9, "dirty shard")
	// Adopted shards: built against the pre-change fallback; divergence
	// must stay within the cross-shard bound the sharding contract allows.
	scoreDiff(t, full, partial, cleanIDs, 0.15, "clean shards")
}

// TestRebuildPartialNewSourceRederivesFallback: under the global partition
// the initial build needs the fallback estimator (each shard misses the
// other shards' sources' labels). When a brand-new source then joins with
// only unlabeled claims, no labeled slice changes — but the old estimator's
// tables are indexed by the old source table, so reusing it would index out
// of range. RebuildPartial must re-derive it and match a full rebuild.
func TestRebuildPartialNewSourceRederivesFallback(t *testing.T) {
	base := subjectPartitionedDataset(t)
	opts := corrfuse.Options{
		Method:      corrfuse.PrecRecCorr,
		Smoothing:   0.1,
		Shards:      nShards,
		Parallelism: nShards,
	}
	prev, err := corrfuse.NewSharded(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2 := base.Clone()
	s := d2.AddSource("latecomer")
	d2.Observe(s, corrfuse.Triple{Subject: shardSubjects(base)[0][0], Predicate: "p-late", Object: "v"})

	partial, err := prev.RebuildPartial(d2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// The source-table change disables adoption for every shard.
	for _, st := range partial.ShardStats() {
		if st.Reused {
			t.Errorf("shard %d adopted across a source-table change", st.Shard)
		}
	}
	full, err := prev.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	scoreDiff(t, full, partial, providedIDs(d2), 1e-9, "new source")
}

// TestRebuildPartialDegradesOnUnderstatedDirtySet: a shard changed but not
// listed as dirty must be retrained anyway (the partition verifies the
// claim), so the result still equals a full rebuild.
func TestRebuildPartialDegradesOnUnderstatedDirtySet(t *testing.T) {
	base := subjectPartitionedDataset(t)
	opts := corrfuse.Options{
		Method:      corrfuse.PrecRecCorr,
		Smoothing:   0.1,
		Shards:      nShards,
		Parallelism: nShards,
	}
	prev, err := corrfuse.NewSharded(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2 := addUnlabeledClaims(t, base, []int{0, 2})
	// Claim only shard 0 is dirty; shard 2's change must be caught.
	partial, err := prev.RebuildPartial(d2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range partial.ShardStats() {
		if st.Shard == 2 && st.Reused {
			t.Fatal("changed shard 2 adopted on an understated dirty set")
		}
	}
	full, err := prev.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	scoreDiff(t, full, partial, providedIDs(d2), 1e-9, "understated")
}

// TestRebuildPartialEdgeCases: an empty dirty set over unchanged data adopts
// everything; an all-dirty set equals a full rebuild with nothing adopted;
// out-of-range shard indexes error.
func TestRebuildPartialEdgeCases(t *testing.T) {
	base := subjectPartitionedDataset(t)
	opts := corrfuse.Options{
		Method:      corrfuse.PrecRecCorr,
		Smoothing:   0.1,
		Shards:      nShards,
		Parallelism: nShards,
	}
	prev, err := corrfuse.NewSharded(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	same, err := prev.RebuildPartial(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReuse(t, same, nil)
	scoreDiff(t, prev, same, providedIDs(base), 0, "no-op")

	d2 := addUnlabeledClaims(t, base, []int{0, 1, 2, 3})
	all, err := prev.RebuildPartial(d2, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	checkReuse(t, all, []int{0, 1, 2, 3})
	full, err := prev.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	scoreDiff(t, full, all, providedIDs(d2), 1e-9, "all-dirty")

	if _, err := prev.RebuildPartial(d2, []int{nShards}); err == nil {
		t.Error("out-of-range shard index accepted")
	}

	// One shard: a forced rebuild over unchanged data adopts the whole
	// model; an understated dirty set over changed data retrains it.
	opts.Shards = 1
	one, err := corrfuse.NewSharded(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	same, err = one.RebuildPartial(base.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReuse(t, same, nil)
	scoreDiff(t, one, same, providedIDs(base), 0, "one shard no-op")
	changed, err := one.RebuildPartial(d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReuse(t, changed, []int{0})

	if _, err := prev.RebuildPartial(nil, nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

// TestRebuildPartialTrainRestrictedDelegatesToFull: an engine built under an
// Options.Train restriction bakes it into every shard model, so a partial
// rebuild must not adopt any of them — it delegates to the full rebuild,
// which clears Train.
func TestRebuildPartialTrainRestrictedDelegatesToFull(t *testing.T) {
	base := subjectPartitionedDataset(t)
	labeled := base.Labeled()
	opts := corrfuse.Options{
		Method:      corrfuse.PrecRecCorr,
		Smoothing:   0.1,
		Shards:      nShards,
		Parallelism: nShards,
		Train:       labeled[:len(labeled)/2],
	}
	prev, err := corrfuse.NewSharded(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2 := addUnlabeledClaims(t, base, []int{1})
	partial, err := prev.RebuildPartial(d2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	checkReuse(t, partial, []int{0, 1, 2, 3}) // nothing adopted
	full, err := prev.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	scoreDiff(t, full, partial, providedIDs(d2), 1e-9, "train-restricted")
}
