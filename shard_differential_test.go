// Differential tests for the sharded fusion engine: when quality evidence
// and correlation are subject-scoped and no source's data crosses shards,
// ShardedFuser must reproduce the monolithic Fuser's probabilities exactly
// (within floating-point noise); when correlations cross shards, the
// divergence must stay bounded and the two engines must agree on every
// confidently classified triple.
package corrfuse_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"corrfuse"
	"corrfuse/internal/shard"
	"corrfuse/internal/triple"
)

const nShards = 4

// subjectPartitionedDataset builds a dataset whose sources each cover
// subjects of exactly one shard of an nShards-way partition:
//
//   - copierA-g and copierB-g provide identical true triples plus a shared
//     false triple (strong positive correlation, subject-scoped),
//   - indep-g provides a mix on its own.
//
// With subject scope, every statistic the quality estimator computes for
// these sources is confined to one shard, which is the regime where
// shard-local training is exact.
func subjectPartitionedDataset(t testing.TB) *corrfuse.Dataset {
	t.Helper()
	d := corrfuse.NewDataset()
	var a, b, c [nShards]corrfuse.SourceID
	for g := 0; g < nShards; g++ {
		a[g] = d.AddSource(fmt.Sprintf("copierA-%d", g))
		b[g] = d.AddSource(fmt.Sprintf("copierB-%d", g))
		c[g] = d.AddSource(fmt.Sprintf("indep-%d", g))
	}
	// Collect 24 subjects per shard (deterministically, by hashing the
	// same subject names the router will hash).
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

func providedIDs(d *corrfuse.Dataset) []corrfuse.TripleID {
	var ids []corrfuse.TripleID
	for i := 0; i < d.NumTriples(); i++ {
		if len(d.Providers(corrfuse.TripleID(i))) > 0 {
			ids = append(ids, corrfuse.TripleID(i))
		}
	}
	return ids
}

// TestShardedMatchesMonolithicSubjectScoped: with subject-scoped
// correlation, the sharded engine is exact — probabilities match the
// monolithic engine within 1e-9 for every supervised method.
func TestShardedMatchesMonolithicSubjectScoped(t *testing.T) {
	d := subjectPartitionedDataset(t)
	for _, method := range []corrfuse.Method{
		corrfuse.PrecRec,
		corrfuse.PrecRecCorr,
		corrfuse.PrecRecCorrAggressive,
		corrfuse.PrecRecCorrElastic,
	} {
		t.Run(method.String(), func(t *testing.T) {
			opts := corrfuse.Options{
				Method:    method,
				Scope:     corrfuse.NewScopeSubject(d),
				Smoothing: 0.1,
			}
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
			ids := providedIDs(d)
			monoP := mono.Score(ids)
			shardP := sharded.Score(ids)
			for i, id := range ids {
				if diff := math.Abs(monoP[i] - shardP[i]); diff > 1e-9 {
					t.Errorf("%v: monolithic %.12f, sharded %.12f (diff %.3g)",
						d.Triple(id), monoP[i], shardP[i], diff)
				}
			}
			// The per-triple routing path must agree with batch scoring.
			for _, id := range ids[:10] {
				tt := d.Triple(id)
				p, ok := sharded.Probability(tt)
				if !ok {
					t.Fatalf("sharded engine does not know %v", tt)
				}
				if math.Abs(p-sharded.ProbabilityByID(id)) > 1e-15 {
					t.Errorf("%v: Probability %v != ProbabilityByID %v", tt, p, sharded.ProbabilityByID(id))
				}
			}
		})
	}
}

// TestShardedFuseMergesGlobally: Fuse returns globally ranked results keyed
// by global TripleIDs, covering exactly the provided triples, with the same
// accepted set as the monolithic engine (subject-scoped regime).
func TestShardedFuseMergesGlobally(t *testing.T) {
	d := subjectPartitionedDataset(t)
	opts := corrfuse.Options{
		Method:    corrfuse.PrecRecCorr,
		Scope:     corrfuse.NewScopeSubject(d),
		Smoothing: 0.1,
		Shards:    nShards,
	}
	sharded, err := corrfuse.NewSharded(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sharded.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	ids := providedIDs(d)
	if len(res.All) != len(ids) {
		t.Fatalf("Fuse scored %d triples, dataset provides %d", len(res.All), len(ids))
	}
	seen := make(map[corrfuse.TripleID]bool, len(res.All))
	for i, st := range res.All {
		if d.Triple(st.ID) != st.Triple {
			t.Fatalf("result %d: ID %d is not global (names %v, triple is %v)", i, st.ID, d.Triple(st.ID), st.Triple)
		}
		if seen[st.ID] {
			t.Fatalf("result %d: duplicate ID %d", i, st.ID)
		}
		seen[st.ID] = true
		if i > 0 && res.All[i-1].Probability < st.Probability {
			t.Fatalf("merged ranking not sorted at %d: %v then %v", i, res.All[i-1].Probability, st.Probability)
		}
		if st.Probability != sharded.ProbabilityByID(st.ID) {
			t.Fatalf("result %d: Fuse probability %v != ProbabilityByID %v", i, st.Probability, sharded.ProbabilityByID(st.ID))
		}
	}
	monoOpts := opts
	monoOpts.Shards = 0
	mono, err := corrfuse.New(d, monoOpts)
	if err != nil {
		t.Fatal(err)
	}
	monoRes, err := mono.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	monoAccepted := make(map[corrfuse.TripleID]bool, len(monoRes.Accepted))
	for _, st := range monoRes.Accepted {
		monoAccepted[st.ID] = true
	}
	if len(res.Accepted) != len(monoRes.Accepted) {
		t.Fatalf("sharded accepts %d, monolithic %d", len(res.Accepted), len(monoRes.Accepted))
	}
	for _, st := range res.Accepted {
		if !monoAccepted[st.ID] {
			t.Errorf("sharded accepts %v, monolithic does not", st.Triple)
		}
	}
}

// TestShardedHonorsTrainRestriction: a caller-supplied Options.Train set
// (global TripleIDs) must restrict every shard's training slice — the IDs
// are translated through the partition — so the sharded engine still
// matches the monolithic one in the subject-scoped regime.
func TestShardedHonorsTrainRestriction(t *testing.T) {
	d := subjectPartitionedDataset(t)
	// A prefix of the labeled triples (generation order groups them by
	// shard bucket), so the restriction skews the per-group label mix
	// instead of sampling it proportionally.
	labeled := d.Labeled()
	train := labeled[:len(labeled)*3/5]
	opts := corrfuse.Options{
		Method:    corrfuse.PrecRecCorr,
		Scope:     corrfuse.NewScopeSubject(d),
		Smoothing: 0.1,
		Train:     train,
	}
	mono, err := corrfuse.New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	monoFull, err := corrfuse.New(d, corrfuse.Options{
		Method: corrfuse.PrecRecCorr, Scope: opts.Scope, Smoothing: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = nShards
	sharded, err := corrfuse.NewSharded(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := providedIDs(d)
	monoP := mono.Score(ids)
	fullP := monoFull.Score(ids)
	shardP := sharded.Score(ids)
	restrictionMatters := false
	for i, id := range ids {
		if diff := math.Abs(monoP[i] - shardP[i]); diff > 1e-9 {
			t.Errorf("%v: restricted monolithic %.12f, restricted sharded %.12f (diff %.3g)",
				d.Triple(id), monoP[i], shardP[i], diff)
		}
		if math.Abs(monoP[i]-fullP[i]) > 1e-9 {
			restrictionMatters = true
		}
	}
	if !restrictionMatters {
		t.Fatal("Train restriction changed nothing; the test is vacuous")
	}
}

// crossShardDataset builds the regime where sharding is approximate: two
// copying sources and one independent source whose data — and labels —
// spread over every shard under the global scope.
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

// TestShardedDivergenceBoundCrossShard documents and bounds the
// approximation when correlations cross shards. Each shard estimates source
// quality and joint statistics from its own label slice, so the estimates
// are unbiased but noisier (the slice is ~1/N of the training data) and
// cross-shard joint support shrinks. The divergence observed here is a few
// percent; the test pins a 0.15 ceiling on per-triple divergence and
// requires both engines to classify every confident triple (monolithic
// probability outside [0.35, 0.65]) identically.
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
	ids := providedIDs(d)
	monoP := mono.Score(ids)
	shardP := sharded.Score(ids)
	maxDiff := 0.0
	for i, id := range ids {
		diff := math.Abs(monoP[i] - shardP[i])
		if diff > maxDiff {
			maxDiff = diff
		}
		if monoP[i] > 0.65 || monoP[i] < 0.35 {
			if (monoP[i] > 0.5) != (shardP[i] > 0.5) {
				t.Errorf("%v: engines disagree on a confident triple: monolithic %.4f, sharded %.4f",
					d.Triple(id), monoP[i], shardP[i])
			}
		}
	}
	t.Logf("max cross-shard divergence over %d triples: %.6f", len(ids), maxDiff)
	if maxDiff > 0.15 {
		t.Fatalf("cross-shard divergence %.4f exceeds the documented 0.15 bound", maxDiff)
	}
}

// TestShardedOnlineRoutingParity: the sharded online scorer must agree with
// the monolithic one in the subject-scoped regime (provider-only evidence),
// and with the batch engine's own independence model for fresh claims.
func TestShardedOnlineRoutingParity(t *testing.T) {
	d := subjectPartitionedDataset(t)
	opts := corrfuse.Options{
		Method:    corrfuse.PrecRec,
		Scope:     corrfuse.NewScopeSubject(d),
		Smoothing: 0.1,
	}
	mono, err := corrfuse.New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = nShards
	sharded, err := corrfuse.NewSharded(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	monoInc, err := mono.Incremental(false)
	if err != nil {
		t.Fatal(err)
	}
	shardInc, err := sharded.Online(false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tt := corrfuse.Triple{Subject: fmt.Sprintf("fresh-%03d", i), Predicate: "p", Object: "v"}
		sid := triple.SourceID(i % d.NumSources())
		pm, err := monoInc.Observe(sid, tt)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := shardInc.Observe(sid, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pm-ps) > 1e-9 {
			t.Errorf("claim %d: monolithic live %.9f, sharded live %.9f", i, pm, ps)
		}
	}
	if monoInc.Len() != shardInc.Len() {
		t.Errorf("Len: monolithic %d, sharded %d", monoInc.Len(), shardInc.Len())
	}
}

// TestOneShardEngineEqualsFuser: the one-shard engine IS the unpartitioned
// model. For every method, scope and training restriction, NewModel with
// Shards 0 or 1 reproduces corrfuse.New exactly (==, not a tolerance): the
// frozen tables, the Fuse ranking order, Decide, and the online scorer. The
// dataset includes a source with no labeled triple — the one a multi-shard
// engine's global fallback estimator would stand in for.
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
					for _, shards := range []int{0, 1} {
						opts.Shards = shards
						got, err := corrfuse.NewModel(d, opts)
						if err != nil {
							t.Fatal(err)
						}
						assertSameModel(t, d, want, got)
					}
				})
			}
		}
	}
}

// assertSameModel requires got to answer exactly as the Fuser want does.
func assertSameModel(t *testing.T, d *corrfuse.Dataset, want *corrfuse.Fuser, got corrfuse.Model) {
	t.Helper()
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
		wa, wk := want.Decide(tt)
		ga, gk := got.Decide(tt)
		if ga != wa || gk != wk {
			t.Fatalf("%v: Decide (%v, %v), want (%v, %v)", tt, ga, gk, wa, wk)
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
	winc, werr := want.Incremental(true)
	ginc, gerr := got.Online(true)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("Online error %v, Fuser.Incremental error %v", gerr, werr)
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

// TestShardStatsCoverDataset: ShardStats has one entry per shard, in shard
// order, and together they cover every triple — for one shard as for many.
func TestShardStatsCoverDataset(t *testing.T) {
	d := subjectPartitionedDataset(t)
	for _, shards := range []int{0, 1, nShards} {
		sf, err := corrfuse.NewSharded(d, corrfuse.Options{Method: corrfuse.PrecRecCorr, Smoothing: 0.1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		want := max(shards, 1)
		if sf.NumShards() != want {
			t.Fatalf("Shards=%d: NumShards = %d, want %d", shards, sf.NumShards(), want)
		}
		stats := sf.ShardStats()
		if len(stats) != want {
			t.Fatalf("Shards=%d: ShardStats has %d entries", shards, len(stats))
		}
		total := 0
		for i, st := range stats {
			if st.Shard != i {
				t.Errorf("Shards=%d: stats[%d].Shard = %d", shards, i, st.Shard)
			}
			total += st.Triples
		}
		if total != d.NumTriples() {
			t.Errorf("Shards=%d: shard stats cover %d triples, dataset has %d", shards, total, d.NumTriples())
		}
	}
}
