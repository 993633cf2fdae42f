// Equality tests for the fusion engine: whatever Options.Shards says,
// NewSharded and NewModel build the model New builds, and RebuildPartial
// over any dirty set builds the model New builds over the new capture. Every
// answer — probabilities, decisions, the Fuse ranking, the online scorer —
// is compared with ==, not a tolerance.
package corrfuse_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"corrfuse"
	"corrfuse/internal/shard"
)

// nShards is the subject-hash bucket count the datasets below are laid out
// over, and the shard count most tests ask the engine for.
const nShards = 4

// subjectPartitionedDataset builds a dataset whose sources each cover the
// subjects of exactly one nShards-way subject-hash bucket:
//
//   - copierA-g and copierB-g provide identical true triples plus a shared
//     false triple (strong positive correlation, subject-scoped),
//   - indep-g provides a mix on its own.
func subjectPartitionedDataset(t testing.TB) *corrfuse.Dataset {
	t.Helper()
	d := corrfuse.NewDataset()
	var a, b, c [nShards]corrfuse.SourceID
	for g := 0; g < nShards; g++ {
		a[g] = d.AddSource(fmt.Sprintf("copierA-%d", g))
		b[g] = d.AddSource(fmt.Sprintf("copierB-%d", g))
		c[g] = d.AddSource(fmt.Sprintf("indep-%d", g))
	}
	// Collect 24 subjects per bucket.
	perShard := make([][]string, nShards)
	for i := 0; len(perShard[0]) < 24 || len(perShard[1]) < 24 || len(perShard[2]) < 24 || len(perShard[3]) < 24; i++ {
		sub := fmt.Sprintf("subject-%04d", i)
		g := shard.Of(sub, nShards)
		if len(perShard[g]) < 24 {
			perShard[g] = append(perShard[g], sub)
		}
	}
	for g := 0; g < nShards; g++ {
		for j, sub := range perShard[g] {
			tt := corrfuse.Triple{Subject: sub, Predicate: "p", Object: "v"}
			switch j % 6 {
			case 0, 1: // true triple both copiers provide
				d.Observe(a[g], tt)
				d.Observe(b[g], tt)
				d.SetLabel(tt, corrfuse.True)
			case 2: // true triple the independent source also finds
				d.Observe(a[g], tt)
				d.Observe(b[g], tt)
				d.Observe(c[g], tt)
				d.SetLabel(tt, corrfuse.True)
			case 3: // shared copier mistake: joint FPR support
				d.Observe(a[g], tt)
				d.Observe(b[g], tt)
				d.SetLabel(tt, corrfuse.False)
			case 4: // independent-source mistake
				d.Observe(c[g], tt)
				d.SetLabel(tt, corrfuse.False)
			case 5: // unlabeled co-provided triple: the scoring target
				d.Observe(a[g], tt)
				d.Observe(b[g], tt)
				if j%2 == 0 {
					d.Observe(c[g], tt)
				}
			}
		}
	}
	return d
}

// crossShardDataset builds two copying sources and one independent source
// whose data — and labels — spread over every subject-hash bucket.
func crossShardDataset(t testing.TB) *corrfuse.Dataset {
	t.Helper()
	d := corrfuse.NewDataset()
	a := d.AddSource("copierA")
	b := d.AddSource("copierB")
	c := d.AddSource("indep")
	for i := 0; i < 160; i++ {
		tt := corrfuse.Triple{Subject: fmt.Sprintf("subject-%04d", i), Predicate: "p", Object: "v"}
		switch i % 8 {
		case 0, 1, 2:
			d.Observe(a, tt)
			d.Observe(b, tt)
			d.SetLabel(tt, corrfuse.True)
		case 3:
			d.Observe(a, tt)
			d.Observe(b, tt)
			d.Observe(c, tt)
			d.SetLabel(tt, corrfuse.True)
		case 4:
			d.Observe(a, tt)
			d.Observe(b, tt)
			d.SetLabel(tt, corrfuse.False)
		case 5:
			d.Observe(c, tt)
			d.SetLabel(tt, corrfuse.False)
		case 6, 7:
			d.Observe(a, tt)
			d.Observe(b, tt)
			if i%16 >= 8 {
				d.Observe(c, tt)
			}
		}
	}
	return d
}

func providedIDs(d *corrfuse.Dataset) []corrfuse.TripleID {
	var ids []corrfuse.TripleID
	for i := 0; i < d.NumTriples(); i++ {
		if len(d.Providers(corrfuse.TripleID(i))) > 0 {
			ids = append(ids, corrfuse.TripleID(i))
		}
	}
	return ids
}

// assertSameModel requires got to answer exactly as the Fuser want does:
// the frozen tables, Probability and Decide per triple, the Fuse ranking and
// the online scorer.
func assertSameModel(t *testing.T, d *corrfuse.Dataset, want *corrfuse.Fuser, got corrfuse.Model) {
	t.Helper()
	if got.MethodName() != want.MethodName() {
		t.Fatalf("method %q, want %q", got.MethodName(), want.MethodName())
	}
	wp, wprov, wacc := want.FrozenScores()
	gp, gprov, gacc := got.FrozenScores()
	if len(gp) != len(wp) {
		t.Fatalf("frozen tables cover %d IDs, want %d", len(gp), len(wp))
	}
	for i := range wp {
		if gp[i] != wp[i] || gprov[i] != wprov[i] || gacc[i] != wacc[i] {
			t.Fatalf("%v: frozen (%v, %v, %v), want (%v, %v, %v)",
				d.Triple(corrfuse.TripleID(i)), gp[i], gprov[i], gacc[i], wp[i], wprov[i], wacc[i])
		}
		tt := d.Triple(corrfuse.TripleID(i))
		wpr, wk := want.Probability(tt)
		gpr, gk := got.Probability(tt)
		wa, _ := want.Decide(tt)
		ga, _ := got.Decide(tt)
		if gpr != wpr || gk != wk || ga != wa {
			t.Fatalf("%v: Probability (%v, %v) Decide %v, want (%v, %v) %v", tt, gpr, gk, ga, wpr, wk, wa)
		}
	}
	wr, err := want.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	gr, err := got.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gr.All, wr.All) || !slices.Equal(gr.Accepted, wr.Accepted) {
		t.Fatal("Fuse ranking differs from the Fuser's")
	}
	winc, werr := want.Online(true)
	ginc, gerr := got.Online(true)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("Online error %v, want %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	for i := 0; i < 40; i++ {
		tt := corrfuse.Triple{Subject: fmt.Sprintf("fresh-%03d", i%25), Predicate: "p", Object: "v"}
		sid := corrfuse.SourceID(i % d.NumSources())
		pw, err := winc.Observe(sid, tt)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := ginc.Observe(sid, tt)
		if err != nil {
			t.Fatal(err)
		}
		if pg != pw || ginc.Providers(tt) != winc.Providers(tt) {
			t.Fatalf("claim %d: live %v (%d providers), want %v (%d)", i, pg, ginc.Providers(tt), pw, winc.Providers(tt))
		}
	}
	if ginc.Len() != winc.Len() {
		t.Fatalf("online Len %d, want %d", ginc.Len(), winc.Len())
	}
}

// freshModel is the model a rebuild of prev over d must equal: New over d
// with prev's options, Train cleared and a subject scope re-indexed for d.
func freshModel(t *testing.T, prev *corrfuse.Fuser, d *corrfuse.Dataset) *corrfuse.Fuser {
	t.Helper()
	opts := prev.Options()
	opts.Train = nil
	if _, ok := opts.Scope.(corrfuse.ScopeGlobal); !ok {
		opts.Scope = corrfuse.NewScopeSubject(d)
	}
	f, err := corrfuse.New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOneShardEngineEqualsFuser: the engine is one model whatever
// Options.Shards says. For every method, both scopes and a training
// restriction, NewSharded and NewModel with Shards 0, 1, 2 and 8 reproduce
// New exactly, and a rebuild over a changed capture — Rebuild, or
// RebuildPartial with any dirty set, out-of-range indexes included — equals
// New over that capture. The dataset includes a source with no labeled
// triple.
func TestOneShardEngineEqualsFuser(t *testing.T) {
	d := subjectPartitionedDataset(t)
	mute := d.AddSource("never-labeled")
	for i := 0; i < 6; i++ {
		tt := corrfuse.Triple{Subject: fmt.Sprintf("subject-%04d", i), Predicate: "p-mute", Object: "v"}
		d.Observe(mute, tt)
		if i%2 == 0 {
			d.Observe(corrfuse.SourceID(i%3), tt)
		}
	}
	// The next capture: a new claim, a relabeled triple and a new source.
	d2 := d.Clone()
	d2.Observe(0, corrfuse.Triple{Subject: "subject-0001", Predicate: "p-new", Object: "v"})
	d2.SetLabel(d.Triple(d.Labeled()[0]), corrfuse.False)
	d2.Observe(d2.AddSource("latecomer"), corrfuse.Triple{Subject: "subject-0002", Predicate: "p", Object: "v"})

	labeled := d.Labeled()
	methods := []corrfuse.Method{
		corrfuse.PrecRec, corrfuse.PrecRecCorr, corrfuse.PrecRecCorrAggressive, corrfuse.PrecRecCorrElastic,
		corrfuse.UnionK, corrfuse.ThreeEstimates, corrfuse.LTM,
	}
	for _, method := range methods {
		for _, subject := range []bool{false, true} {
			for _, train := range [][]corrfuse.TripleID{nil, labeled[:len(labeled)*3/5]} {
				name := fmt.Sprintf("%v/subject=%v/train=%d", method, subject, len(train))
				t.Run(name, func(t *testing.T) {
					opts := corrfuse.Options{Method: method, Smoothing: 0.1, Train: train}
					if subject {
						opts.Scope = corrfuse.NewScopeSubject(d)
					}
					want, err := corrfuse.New(d, opts)
					if err != nil {
						t.Fatal(err)
					}
					var sf *corrfuse.ShardedFuser
					for _, shards := range []int{0, 1, 2, 8} {
						opts.Shards = shards
						opts.Parallelism = shards
						if sf, err = corrfuse.NewSharded(d, opts); err != nil {
							t.Fatal(err)
						}
						assertSameModel(t, d, want, sf)
						m, err := corrfuse.NewModel(d, opts)
						if err != nil {
							t.Fatal(err)
						}
						assertSameModel(t, d, want, m)
						if sf.NumShards() != 1 || sf.ShardStats() != nil || sf.PartitionTimings() != (shard.Timings{}) {
							t.Fatalf("Shards=%d: the shard accessors are not inert", shards)
						}
					}
					fresh := freshModel(t, want, d2)
					full, err := sf.Rebuild(d2)
					if err != nil {
						t.Fatal(err)
					}
					assertSameModel(t, d2, fresh, full)
					for _, dirty := range [][]int{nil, {0}, {1, 7}, {-3, 99}} {
						partial, err := sf.RebuildPartial(d2, dirty)
						if err != nil {
							t.Fatalf("dirty %v: %v", dirty, err)
						}
						assertSameModel(t, d2, fresh, partial)
					}
				})
			}
		}
	}
}

// TestShardedMatchesMonolithicSubjectScoped: with subject scope and every
// source confined to one subject-hash bucket, an nShards-way engine scoring
// on nShards workers answers as New does, for every supervised method.
func TestShardedMatchesMonolithicSubjectScoped(t *testing.T) {
	d := subjectPartitionedDataset(t)
	for _, method := range []corrfuse.Method{
		corrfuse.PrecRec,
		corrfuse.PrecRecCorr,
		corrfuse.PrecRecCorrAggressive,
		corrfuse.PrecRecCorrElastic,
	} {
		t.Run(method.String(), func(t *testing.T) {
			opts := corrfuse.Options{Method: method, Scope: corrfuse.NewScopeSubject(d), Smoothing: 0.1}
			mono, err := corrfuse.New(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Shards = nShards
			opts.Parallelism = nShards
			sharded, err := corrfuse.NewSharded(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, d, mono, sharded)
		})
	}
}

// TestShardedFuseMergesGlobally: an nShards-way engine's Fuse ranks every
// provided triple once, by descending probability, keyed by the dataset's
// TripleIDs — New's ranking, entry for entry.
func TestShardedFuseMergesGlobally(t *testing.T) {
	d := subjectPartitionedDataset(t)
	opts := corrfuse.Options{Method: corrfuse.PrecRecCorr, Scope: corrfuse.NewScopeSubject(d), Smoothing: 0.1, Shards: nShards}
	sharded, err := corrfuse.NewSharded(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sharded.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != len(providedIDs(d)) {
		t.Fatalf("Fuse scored %d triples, dataset provides %d", len(res.All), len(providedIDs(d)))
	}
	for i, st := range res.All {
		if d.Triple(st.ID) != st.Triple {
			t.Fatalf("result %d: ID %d names %v, triple is %v", i, st.ID, d.Triple(st.ID), st.Triple)
		}
		if i > 0 && res.All[i-1].Probability < st.Probability {
			t.Fatalf("ranking not sorted at %d: %v then %v", i, res.All[i-1].Probability, st.Probability)
		}
	}
	opts.Shards = 0
	mono, err := corrfuse.New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, d, mono, sharded)
}

// TestShardedHonorsTrainRestriction: a caller-supplied Options.Train set
// restricts the engine's training at any shard count, as it does New's.
func TestShardedHonorsTrainRestriction(t *testing.T) {
	d := subjectPartitionedDataset(t)
	// A prefix of the labeled triples (generation order groups them by
	// bucket), so the restriction skews the per-group label mix instead of
	// sampling it proportionally.
	labeled := d.Labeled()
	opts := corrfuse.Options{
		Method:    corrfuse.PrecRecCorr,
		Scope:     corrfuse.NewScopeSubject(d),
		Smoothing: 0.1,
		Train:     labeled[:len(labeled)*3/5],
	}
	mono, err := corrfuse.New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	monoFull, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRecCorr, Scope: opts.Scope, Smoothing: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = nShards
	sharded, err := corrfuse.NewSharded(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, d, mono, sharded)
	ids := providedIDs(d)
	if slices.Equal(mono.Score(ids), monoFull.Score(ids)) {
		t.Fatal("Train restriction changed nothing; the test is vacuous")
	}
}

// TestShardedDivergenceBoundCrossShard: when correlated sources and their
// labels spread over every subject-hash bucket, the nShards-way engine still
// answers exactly as New does — the divergence bound is zero.
func TestShardedDivergenceBoundCrossShard(t *testing.T) {
	d := crossShardDataset(t)
	opts := corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1}
	mono, err := corrfuse.New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = nShards
	sharded, err := corrfuse.NewSharded(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, d, mono, sharded)
}

// TestShardedOnlineRoutingParity: an nShards-way engine's online scorer
// answers fresh claims as New's does, and as a Rebuild over the same claims
// does: under subject scope a claim on a subject no source covered moves no
// parameter.
func TestShardedOnlineRoutingParity(t *testing.T) {
	d := subjectPartitionedDataset(t)
	opts := corrfuse.Options{Method: corrfuse.PrecRec, Scope: corrfuse.NewScopeSubject(d), Smoothing: 0.1}
	mono, err := corrfuse.New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = nShards
	sharded, err := corrfuse.NewSharded(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	monoOn, err := mono.Online(false)
	if err != nil {
		t.Fatal(err)
	}
	shardOn, err := sharded.Online(false)
	if err != nil {
		t.Fatal(err)
	}
	d2 := d.Clone()
	live := map[corrfuse.Triple]float64{}
	for i := 0; i < 40; i++ {
		tt := corrfuse.Triple{Subject: fmt.Sprintf("fresh-%03d", i), Predicate: "p", Object: "v"}
		sid := corrfuse.SourceID(i % d.NumSources())
		pm, err := monoOn.Observe(sid, tt)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := shardOn.Observe(sid, tt)
		if err != nil {
			t.Fatal(err)
		}
		if pm != ps {
			t.Errorf("claim %d: New's live %v, engine's live %v", i, pm, ps)
		}
		d2.Observe(sid, tt)
		live[tt] = pm
	}
	if monoOn.Len() != shardOn.Len() {
		t.Errorf("Len: New's %d, engine's %d", monoOn.Len(), shardOn.Len())
	}
	rebuilt, err := sharded.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	for tt, p := range live {
		if q, _ := rebuilt.Probability(tt); math.Abs(p-q) > 1e-12 {
			t.Errorf("%v: live %v, rebuilt %v", tt, p, q)
		}
	}
}

// shardSubjects returns, per nShards-way subject-hash bucket, the subjects
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

// addUnlabeledClaims clones d and adds a fresh unlabeled triple per listed
// bucket, observed by that bucket's copier pair on a subject they already
// cover.
func addUnlabeledClaims(t *testing.T, d *corrfuse.Dataset, buckets []int) *corrfuse.Dataset {
	t.Helper()
	d2 := d.Clone()
	subs := shardSubjects(d)
	for _, g := range buckets {
		a, _ := d2.SourceID(fmt.Sprintf("copierA-%d", g))
		b, _ := d2.SourceID(fmt.Sprintf("copierB-%d", g))
		tt := corrfuse.Triple{Subject: subs[g][0], Predicate: "p-new", Object: "v"}
		d2.Observe(a, tt)
		d2.Observe(b, tt)
	}
	return d2
}

// assertRebuilds requires RebuildPartial(d2, dirty) and Rebuild(d2) of prev
// to equal New over d2.
func assertRebuilds(t *testing.T, prev *corrfuse.Fuser, d2 *corrfuse.Dataset, dirty []int) {
	t.Helper()
	fresh := freshModel(t, prev, d2)
	partial, err := prev.RebuildPartial(d2, dirty)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, d2, fresh, partial)
	full, err := prev.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, d2, fresh, full)
}

// TestRebuildPartialMatchesFullRebuild: RebuildPartial over the buckets a
// change touched equals a full rebuild and New over the new capture, across
// scopes, supervised methods and an unsupervised baseline.
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
		{"PrecRecCorr/subject/1of1", corrfuse.PrecRecCorr, true, 1, []int{0}},
		{"PrecRecCorr/global/1of1", corrfuse.PrecRecCorr, false, 1, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := corrfuse.Options{Method: tc.method, Smoothing: 0.1, Shards: tc.shards, Parallelism: nShards}
			if tc.subject {
				opts.Scope = corrfuse.NewScopeSubject(base)
			}
			prev, err := corrfuse.NewSharded(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertRebuilds(t, prev, addUnlabeledClaims(t, base, tc.dirty), tc.dirty)
		})
	}
}

// TestRebuildPartialLabelChangeRederivesFallback: a new labeled triple in one
// bucket moves the quality estimates every triple is scored with, and
// RebuildPartial re-derives them: every triple, in the listed bucket or not,
// scores as New over the new capture.
func TestRebuildPartialLabelChangeRederivesFallback(t *testing.T) {
	base := subjectPartitionedDataset(t)
	prev, err := corrfuse.NewSharded(base, corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1, Shards: nShards})
	if err != nil {
		t.Fatal(err)
	}
	const g = 1
	d2 := base.Clone()
	a, _ := d2.SourceID(fmt.Sprintf("copierA-%d", g))
	b, _ := d2.SourceID(fmt.Sprintf("copierB-%d", g))
	tt := corrfuse.Triple{Subject: shardSubjects(base)[g][0], Predicate: "p-mislabeled", Object: "v"}
	d2.Observe(a, tt)
	d2.Observe(b, tt)
	d2.SetLabel(tt, corrfuse.False)
	assertRebuilds(t, prev, d2, []int{g})
}

// TestRebuildPartialNewSourceRederivesFallback: a brand-new source with only
// unlabeled claims joins the rebuilt model, which equals New over the new
// capture.
func TestRebuildPartialNewSourceRederivesFallback(t *testing.T) {
	base := subjectPartitionedDataset(t)
	prev, err := corrfuse.NewSharded(base, corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1, Shards: nShards})
	if err != nil {
		t.Fatal(err)
	}
	d2 := base.Clone()
	s := d2.AddSource("latecomer")
	d2.Observe(s, corrfuse.Triple{Subject: shardSubjects(base)[0][0], Predicate: "p-late", Object: "v"})
	assertRebuilds(t, prev, d2, []int{0})
}

// TestRebuildPartialDegradesOnUnderstatedDirtySet: a dirty set that misses a
// changed bucket changes nothing — RebuildPartial ignores it.
func TestRebuildPartialDegradesOnUnderstatedDirtySet(t *testing.T) {
	base := subjectPartitionedDataset(t)
	prev, err := corrfuse.NewSharded(base, corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1, Shards: nShards})
	if err != nil {
		t.Fatal(err)
	}
	assertRebuilds(t, prev, addUnlabeledClaims(t, base, []int{0, 2}), []int{0})
}

// TestRebuildPartialEdgeCases: an empty dirty set over unchanged data
// reproduces the previous model, an all-dirty or out-of-range set is a plain
// rebuild, and a nil dataset is refused.
func TestRebuildPartialEdgeCases(t *testing.T) {
	base := subjectPartitionedDataset(t)
	for _, shards := range []int{1, nShards} {
		prev, err := corrfuse.NewSharded(base, corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		same, err := prev.RebuildPartial(base.Clone(), nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, base, prev, same)
		d2 := addUnlabeledClaims(t, base, []int{0, 1, 2, 3})
		for _, dirty := range [][]int{{0, 1, 2, 3}, {nShards}, nil} {
			assertRebuilds(t, prev, d2, dirty)
		}
		if _, err := prev.RebuildPartial(nil, nil); err == nil {
			t.Error("nil dataset accepted")
		}
	}
}

// TestRebuildPartialTrainRestrictedDelegatesToFull: an engine built under an
// Options.Train restriction rebuilds on every label of the new capture,
// partial or not.
func TestRebuildPartialTrainRestrictedDelegatesToFull(t *testing.T) {
	base := subjectPartitionedDataset(t)
	labeled := base.Labeled()
	prev, err := corrfuse.NewSharded(base, corrfuse.Options{
		Method:    corrfuse.PrecRecCorr,
		Smoothing: 0.1,
		Shards:    nShards,
		Train:     labeled[:len(labeled)/2],
	})
	if err != nil {
		t.Fatal(err)
	}
	assertRebuilds(t, prev, addUnlabeledClaims(t, base, []int{1}), []int{1})
}
