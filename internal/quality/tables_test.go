package quality

import (
	"fmt"
	"math/bits"
	"testing"

	"corrfuse/internal/dataset"
	"corrfuse/internal/triple"
)

// tableDatasets are the random datasets the table differentials run on: one
// with a subject per item (subject scope degenerates to "providers only") and
// one entity-centric, where subject scope leaves real non-providers in scope.
func tableDatasets(t *testing.T) []*triple.Dataset {
	t.Helper()
	var out []*triple.Dataset
	for trial := 0; trial < 2; trial++ {
		d, err := dataset.Generate(dataset.SyntheticSpec{
			NumTrue: 150, NumFalse: 150, Seed: int64(1600 + trial),
			Sources: []dataset.SourceSpec{
				{Precision: 0.7, Recall: 0.5}, {Precision: 0.6, Recall: 0.4},
				{Precision: 0.8, Recall: 0.3}, {Precision: 0.5, Recall: 0.6},
				{Precision: 0.6, Recall: 0.5}, {Precision: 0.7, Recall: 0.4},
				{Precision: 0.9, Recall: 0.1},
			},
			Groups: []dataset.GroupSpec{
				{Members: []int{0, 1, 2}, OnTrue: true, Strength: 0.7},
				{Members: []int{3, 4}, OnTrue: false, Strength: 0.8},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	srcs := make([]dataset.EntitySourceSpec, 7)
	for i := range srcs {
		srcs[i] = dataset.EntitySourceSpec{Coverage: 0.3 + 0.08*float64(i), Accuracy: 0.55 + 0.05*float64(i), ClaimsPerEntity: 1.5}
	}
	d, err := dataset.GenerateEntities(dataset.EntitySpec{
		NumEntities: 120, TruePerEntity: 2, FalsePerEntity: 4, Seed: 1602, Sources: srcs,
		Groups: []dataset.EntityGroupSpec{{Members: []int{1, 2, 5}, Strength: 0.8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, d)
}

// tableClusterings partitions seven sources two ways: several narrow clusters
// (in non-ascending member order, so member order ≠ source order) and one
// cluster of everything.
var tableClusterings = [][][]triple.SourceID{
	{{2, 0, 1}, {4, 3}, {6}, {5}},
	{{0, 1, 2, 3, 4, 5, 6}},
}

// paramsPath is what the fusion kernel computed per inclusion–exclusion term
// before the tables existed: the joint parameter through the Params
// interface, or the independence product when it has no support.
func paramsPath(p Params, ids []triple.SourceID) (r, q float64) {
	var ok bool
	if r, ok = p.JointRecall(ids); !ok {
		r = IndepJointRecall(p, ids)
	}
	if q, ok = p.JointFPR(ids); !ok {
		q = IndepJointFPR(p, ids)
	}
	return r, q
}

// checkTables compares every entry of every table of p with paramsPath on a
// second, identically built Params (so the table build cannot have warmed the
// memo the reference reads).
func checkTables(t *testing.T, name string, p, ref Params, clusters [][]triple.SourceID) {
	t.Helper()
	tables := JointTables(p, clusters)
	if len(tables) != len(clusters) {
		t.Fatalf("%s: %d tables for %d clusters", name, len(tables), len(clusters))
	}
	for ci, cl := range clusters {
		tb := tables[ci]
		if len(tb.R) != 1<<len(cl) || len(tb.Q) != 1<<len(cl) {
			t.Fatalf("%s cluster %d: table sizes %d/%d, want %d", name, ci, len(tb.R), len(tb.Q), 1<<len(cl))
		}
		if tb.R[0] != 1 || tb.Q[0] != 1 {
			t.Fatalf("%s cluster %d: r_∅, q_∅ = %v, %v, want 1, 1", name, ci, tb.R[0], tb.Q[0])
		}
		for mask := 1; mask < len(tb.R); mask++ {
			var ids []triple.SourceID
			for v := uint(mask); v != 0; v &= v - 1 {
				ids = append(ids, cl[bits.TrailingZeros(v)])
			}
			wantR, wantQ := paramsPath(ref, ids)
			if tb.R[mask] != wantR || tb.Q[mask] != wantQ {
				t.Fatalf("%s cluster %d subset %v: table (r, q) = (%v, %v), Params path (%v, %v)",
					name, ci, ids, tb.R[mask], tb.Q[mask], wantR, wantQ)
			}
		}
	}
}

// TestJointTablesEqualParamsPath: every entry of every table an Estimator
// fills from counts is == (not ≈) what JointRecall / JointFPR and the
// independence fallback return for that subset, under both scopes, with and
// without smoothing, a support floor and a training subset.
func TestJointTablesEqualParamsPath(t *testing.T) {
	for di, d := range tableDatasets(t) {
		labeled := d.Labeled()
		var half []triple.TripleID
		for i, id := range labeled {
			if i%2 == 0 {
				half = append(half, id)
			}
		}
		half = append(half, half[0]) // a repeated ID is counted twice by both paths
		for _, scoped := range []bool{false, true} {
			for _, smoothing := range []float64{0, 0.5} {
				for _, minSup := range []int{0, 3} {
					for ti, train := range [][]triple.TripleID{nil, half} {
						opts := Options{Alpha: 0.4, Smoothing: smoothing, MinJointSupport: minSup, Train: train}
						if scoped {
							opts.Scope = triple.NewScopeSubject(d)
						}
						name := fmt.Sprintf("dataset %d scoped=%v smoothing=%v minSupport=%d train=%d", di, scoped, smoothing, minSup, ti)
						for _, clusters := range tableClusterings {
							e, err := NewEstimator(d, opts)
							if err != nil {
								t.Fatal(err)
							}
							ref, err := NewEstimator(d, opts)
							if err != nil {
								t.Fatal(err)
							}
							checkTables(t, name, e, ref, clusters)
						}
					}
				}
			}
		}
	}
}

// TestJointTablesEqualNaiveCounts joins the naive-count reference of
// TestJointStatsDifferential: supported entries are exactly the ratio of the
// directly iterated counts.
func TestJointTablesEqualNaiveCounts(t *testing.T) {
	const alpha = 0.4
	for di, d := range tableDatasets(t) {
		for si, scope := range []triple.Scope{triple.ScopeGlobal{}, triple.NewScopeSubject(d)} {
			e, err := NewEstimator(d, Options{Alpha: alpha, Scope: scope})
			if err != nil {
				t.Fatal(err)
			}
			cl := tableClusterings[1][0]
			tb := JointTables(e, [][]triple.SourceID{cl})[0]
			for mask := 1; mask < len(tb.R); mask++ {
				if bits.OnesCount(uint(mask)) < 2 {
					continue
				}
				var ids []triple.SourceID
				for v := uint(mask); v != 0; v &= v - 1 {
					ids = append(ids, cl[bits.TrailingZeros(v)])
				}
				r, rOK := naiveJointRecall(d, scope, ids)
				p, pOK := naiveJointPrecision(d, ids)
				if rOK && tb.R[mask] != r {
					t.Fatalf("dataset %d scope %d subset %v: table r = %v, naive %v", di, si, ids, tb.R[mask], r)
				}
				if rOK && pOK {
					if q := DeriveFPR(alpha, p, r); tb.Q[mask] != q {
						t.Fatalf("dataset %d scope %d subset %v: table q = %v, naive %v", di, si, ids, tb.Q[mask], q)
					}
				}
			}
		}
	}
}

// TestJointTablesFallbackEstimator: a shard's estimator trained on an
// all-false slice inherits every single-source rate from its fallback and
// supports no joint statistic; its tables hold the fallback's rates and their
// products.
func TestJointTablesFallbackEstimator(t *testing.T) {
	d := tableDatasets(t)[0]
	global, err := NewEstimator(d, Options{Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Alpha: 0.4, Train: d.FalseTriples(), Fallback: global}
	for _, clusters := range tableClusterings {
		e, err := NewEstimator(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewEstimator(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkTables(t, "all-false slice", e, ref, clusters)
		tb := JointTables(e, clusters)[0]
		if want := global.Recall(clusters[0][0]) * global.Recall(clusters[0][1]); tb.R[3] != want {
			t.Fatalf("unsupported pair: r = %v, want the fallback's product %v", tb.R[3], want)
		}
	}
}

// TestJointTablesAnyParams: a Params that is not an Estimator fills its table
// through the interface, and a cluster wider than MaxTableWidth gets none.
func TestJointTablesAnyParams(t *testing.T) {
	m := NewManual(0.5)
	for s := 0; s < 4; s++ {
		m.SetSource(triple.SourceID(s), 0.5+0.1*float64(s), 0.1+0.05*float64(s))
	}
	m.SetJointRecall([]triple.SourceID{0, 2}, 0.45)
	m.SetJointFPR([]triple.SourceID{0, 2}, 0.07)
	m.SetJointRecall([]triple.SourceID{1, 2, 3}, 0.3)
	checkTables(t, "manual", m, m, [][]triple.SourceID{{2, 0, 3}, {1}})
	checkTables(t, "manual", m, m, [][]triple.SourceID{{0, 1, 2, 3}})

	wide := make([]triple.SourceID, MaxTableWidth+1)
	for i := range wide {
		wide[i] = triple.SourceID(i)
	}
	tables := JointTables(m, [][]triple.SourceID{wide, {0, 1}})
	if tables[0].R != nil || tables[0].Q != nil {
		t.Fatalf("a %d-wide cluster got a table of %d entries", len(wide), len(tables[0].R))
	}
	if len(tables[1].R) != 4 {
		t.Fatalf("narrow cluster next to a wide one: %d entries, want 4", len(tables[1].R))
	}
}
