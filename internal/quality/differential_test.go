package quality

import (
	"fmt"
	"slices"
	"testing"

	"corrfuse/internal/dataset"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// naiveJointRecall recomputes r_{S*} by direct iteration, as a reference for
// the bitset implementation.
func naiveJointRecall(d *triple.Dataset, scope triple.Scope, subset []triple.SourceID) (float64, bool) {
	var provided, inScope int
	for _, id := range d.Labeled() {
		if d.Label(id) != triple.True {
			continue
		}
		allScope := true
		for _, s := range subset {
			if !scope.InScope(d, s, id) {
				allScope = false
				break
			}
		}
		if !allScope {
			continue
		}
		inScope++
		allProv := true
		for _, s := range subset {
			if !d.Provides(s, id) {
				allProv = false
				break
			}
		}
		if allProv {
			provided++
		}
	}
	if inScope == 0 {
		return 0, false
	}
	return float64(provided) / float64(inScope), true
}

// naiveJointPrecision recomputes p_{S*} by direct iteration.
func naiveJointPrecision(d *triple.Dataset, subset []triple.SourceID) (float64, bool) {
	var all, allTrue int
	for _, id := range d.Labeled() {
		provided := true
		for _, s := range subset {
			if !d.Provides(s, id) {
				provided = false
				break
			}
		}
		if !provided {
			continue
		}
		all++
		if d.Label(id) == triple.True {
			allTrue++
		}
	}
	if all == 0 {
		return 0, false
	}
	return float64(allTrue) / float64(all), true
}

// TestJointStatsDifferential cross-checks the bitset joint statistics
// against the naive reference on random correlated data, for both scopes
// and many random subsets.
func TestJointStatsDifferential(t *testing.T) {
	rng := stat.NewRNG(2024)
	for trial := 0; trial < 3; trial++ {
		spec := dataset.SyntheticSpec{
			NumTrue:  150,
			NumFalse: 150,
			Seed:     int64(1000 + trial),
			Sources: []dataset.SourceSpec{
				{Precision: 0.7, Recall: 0.5},
				{Precision: 0.6, Recall: 0.4},
				{Precision: 0.8, Recall: 0.3},
				{Precision: 0.5, Recall: 0.6},
				{Precision: 0.6, Recall: 0.5},
				{Precision: 0.7, Recall: 0.4},
			},
			Groups: []dataset.GroupSpec{
				{Members: []int{0, 1, 2}, OnTrue: true, Strength: 0.7},
			},
		}
		d, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		scopes := []triple.Scope{triple.ScopeGlobal{}, triple.NewScopeSubject(d)}
		for si, scope := range scopes {
			e, err := NewEstimator(d, Options{Alpha: 0.5, Scope: scope})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 20; k++ {
				size := 2 + rng.Intn(4)
				idx := rng.SampleWithoutReplacement(6, size)
				subset := make([]triple.SourceID, size)
				for i, v := range idx {
					subset[i] = triple.SourceID(v)
				}
				gotR, gotROK := e.JointRecall(subset)
				wantR, wantROK := naiveJointRecall(d, scope, subset)
				if gotROK != wantROK || (gotROK && !stat.ApproxEqual(gotR, wantR, 1e-12)) {
					t.Fatalf("trial %d scope %d subset %v: JointRecall = (%v,%v), naive (%v,%v)",
						trial, si, subset, gotR, gotROK, wantR, wantROK)
				}
				gotP, gotPOK := e.JointPrecision(subset)
				wantP, wantPOK := naiveJointPrecision(d, subset)
				if gotPOK != wantPOK || (gotPOK && !stat.ApproxEqual(gotP, wantP, 1e-12)) {
					t.Fatalf("trial %d subset %v: JointPrecision = (%v,%v), naive (%v,%v)",
						trial, subset, gotP, gotPOK, wantP, wantPOK)
				}
			}
		}
	}
}

// TestPairCountsDifferential cross-checks PairCounts against direct
// iteration.
func TestPairCountsDifferential(t *testing.T) {
	d, err := dataset.SimulatedReVerb(9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(d, Options{Alpha: 0.26})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < d.NumSources(); a++ {
		for b := a + 1; b < d.NumSources(); b++ {
			bt, bf, at, af, btr, bfr, tt, tf := e.PairCounts(triple.SourceID(a), triple.SourceID(b))
			var wantBT, wantBF, wantAT, wantAF, wantBTr, wantBFr, wantTT, wantTF int
			for _, id := range d.Labeled() {
				isTrue := d.Label(id) == triple.True
				pa := d.Provides(triple.SourceID(a), id)
				pb := d.Provides(triple.SourceID(b), id)
				if isTrue {
					wantTT++
				} else {
					wantTF++
				}
				if pa && isTrue {
					wantAT++
				}
				if pa && !isTrue {
					wantAF++
				}
				if pb && isTrue {
					wantBTr++
				}
				if pb && !isTrue {
					wantBFr++
				}
				if pa && pb && isTrue {
					wantBT++
				}
				if pa && pb && !isTrue {
					wantBF++
				}
			}
			if bt != wantBT || bf != wantBF || at != wantAT || af != wantAF ||
				btr != wantBTr || bfr != wantBFr || tt != wantTT || tf != wantTF {
				t.Fatalf("PairCounts(%d,%d) mismatch", a, b)
			}
		}
	}
}

// refSingles is the per-source scan computeSingles replaced, kept as the
// reference: for every labeled triple in the source's scope, a Provides
// binary search and a label read.
func refSingles(e *Estimator) (prec, rec, fpr []float64) {
	n := e.d.NumSources()
	prec, rec, fpr = make([]float64, n), make([]float64, n), make([]float64, n)
	k := e.opts.Smoothing
	for s := 0; s < n; s++ {
		sid := triple.SourceID(s)
		var provided, providedTrue, inScopeTrue float64
		for _, id := range e.labelled {
			if !e.opts.Scope.InScope(e.d, sid, id) {
				continue
			}
			isTrue := e.d.Label(id) == triple.True
			if e.d.Provides(sid, id) {
				provided++
				if isTrue {
					providedTrue++
				}
			}
			if isTrue {
				inScopeTrue++
			}
		}
		prec[s] = safeRatio(providedTrue+k, provided+2*k)
		rec[s] = safeRatio(providedTrue+k, inScopeTrue+2*k)
		fpr[s] = DeriveFPR(e.opts.Alpha, prec[s], rec[s])
	}
	return prec, rec, fpr
}

// parityScope holds a source accountable for a triple unless their IDs sum
// to a multiple of 3: unlike the subject scope, it leaves some providers out
// of scope, so the scope mask on the provided counts is exercised too.
type parityScope struct{}

func (parityScope) InScope(_ *triple.Dataset, s triple.SourceID, id triple.TripleID) bool {
	return (int(s)+int(id))%3 != 0
}

// TestSinglesPopcountEqualsScan: the popcount single-source rates are == the
// reference scan's on random labeled datasets (one with partial subject
// coverage), under global, subject and parity scope, Smoothing 0 and 0.5,
// and all labels or a training subset.
func TestSinglesPopcountEqualsScan(t *testing.T) {
	rng := stat.NewRNG(26)
	var datasets []*triple.Dataset
	for trial := 0; trial < 3; trial++ {
		d, err := dataset.Generate(dataset.SyntheticSpec{
			NumTrue: 120 + 40*trial, NumFalse: 150, Seed: int64(2600 + trial),
			Sources: []dataset.SourceSpec{
				{Precision: 0.7, Recall: 0.5}, {Precision: 0.6, Recall: 0.4},
				{Precision: 0.8, Recall: 0.3}, {Precision: 0.5, Recall: 0.6},
				{Precision: 0.9, Recall: 0.1},
			},
			Groups: []dataset.GroupSpec{{Members: []int{0, 1, 2}, OnTrue: true, Strength: 0.7}},
		})
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, d)
	}
	srcs := make([]dataset.EntitySourceSpec, 6)
	for i := range srcs {
		srcs[i] = dataset.EntitySourceSpec{Coverage: 0.3 + 0.1*float64(i), Accuracy: 0.55 + 0.05*float64(i), ClaimsPerEntity: 1.5}
	}
	entities, err := dataset.GenerateEntities(dataset.EntitySpec{
		NumEntities: 150, TruePerEntity: 2, FalsePerEntity: 3, Seed: 2610, Sources: srcs,
	})
	if err != nil {
		t.Fatal(err)
	}
	datasets = append(datasets, entities)
	for di, d := range datasets {
		var subset []triple.TripleID
		for _, id := range d.Labeled() {
			if rng.Intn(3) != 0 {
				subset = append(subset, id)
			}
		}
		for si, scope := range []triple.Scope{triple.ScopeGlobal{}, triple.NewScopeSubject(d), parityScope{}} {
			for _, smoothing := range []float64{0, 0.5} {
				for ti, train := range [][]triple.TripleID{nil, subset} {
					e, err := NewEstimator(d, Options{Alpha: 0.4, Scope: scope, Smoothing: smoothing, Train: train})
					if err != nil {
						t.Fatal(err)
					}
					prec, rec, fpr := refSingles(e)
					for s := range prec {
						if e.prec[s] != prec[s] || e.rec[s] != rec[s] || e.fpr[s] != fpr[s] {
							t.Fatalf("dataset %d scope %d smoothing %v train %d source %d: (p, r, q) = (%v, %v, %v), scan (%v, %v, %v)",
								di, si, smoothing, ti, s, e.prec[s], e.rec[s], e.fpr[s], prec[s], rec[s], fpr[s])
						}
					}
				}
			}
		}
	}
}

// TestPairCountsAllocatesNothing: PairCounts is one pass over two provider
// bitsets and makes no allocation, so clustering n sources costs n(n−1)/2
// passes and no garbage.
func TestPairCountsAllocatesNothing(t *testing.T) {
	d, err := dataset.SimulatedReVerb(9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(d, Options{Alpha: 0.26})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { e.PairCounts(0, 1) }); n != 0 {
		t.Fatalf("PairCounts made %v allocations, want 0", n)
	}
}

// everyScope holds every source accountable for every triple, as
// triple.ScopeGlobal does, but is not ScopeGlobal, so the estimator builds
// one scope bitset per source from InScope.
type everyScope struct{}

func (everyScope) InScope(*triple.Dataset, triple.SourceID, triple.TripleID) bool { return true }

// TestGlobalScopeEqualsEveryScope: the one scope bitset global scope shares
// across sources gives == the statistics of per-source bitsets that put
// every source in scope: single rates, pair counts, joint recall and FPR on
// random subsets, and the joint tables, with and without smoothing and a
// training subset.
func TestGlobalScopeEqualsEveryScope(t *testing.T) {
	rng := stat.NewRNG(47)
	for di, d := range tableDatasets(t) {
		var half []triple.TripleID
		for i, id := range d.Labeled() {
			if i%2 == 1 {
				half = append(half, id)
			}
		}
		for _, smoothing := range []float64{0, 0.5} {
			for ti, train := range [][]triple.TripleID{nil, half} {
				opts := Options{Alpha: 0.4, Smoothing: smoothing, MinJointSupport: 2, Train: train}
				global, err := NewEstimator(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Scope = everyScope{}
				every, err := NewEstimator(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("dataset %d smoothing %v train %d", di, smoothing, ti)
				n := d.NumSources()
				for s := 0; s < n; s++ {
					sid := triple.SourceID(s)
					if global.Recall(sid) != every.Recall(sid) || global.FPR(sid) != every.FPR(sid) || global.Precision(sid) != every.Precision(sid) {
						t.Fatalf("%s source %d: global (p, r, q) = (%v, %v, %v), every-source scope (%v, %v, %v)", name, s,
							global.Precision(sid), global.Recall(sid), global.FPR(sid), every.Precision(sid), every.Recall(sid), every.FPR(sid))
					}
					for b := s + 1; b < n; b++ {
						g0, g1, g2, g3, g4, g5, g6, g7 := global.PairCounts(sid, triple.SourceID(b))
						e0, e1, e2, e3, e4, e5, e6, e7 := every.PairCounts(sid, triple.SourceID(b))
						if [8]int{g0, g1, g2, g3, g4, g5, g6, g7} != [8]int{e0, e1, e2, e3, e4, e5, e6, e7} {
							t.Fatalf("%s PairCounts(%d, %d) differ", name, s, b)
						}
					}
				}
				for k := 0; k < 30; k++ {
					size := 2 + rng.Intn(n-1)
					subset := make([]triple.SourceID, size)
					for i, v := range rng.SampleWithoutReplacement(n, size) {
						subset[i] = triple.SourceID(v)
					}
					gr, grOK := global.JointRecall(subset)
					er, erOK := every.JointRecall(subset)
					gq, gqOK := global.JointFPR(subset)
					eq, eqOK := every.JointFPR(subset)
					if gr != er || grOK != erOK || gq != eq || gqOK != eqOK {
						t.Fatalf("%s subset %v: global (r, q) = (%v %v, %v %v), every-source scope (%v %v, %v %v)",
							name, subset, gr, grOK, gq, gqOK, er, erOK, eq, eqOK)
					}
				}
				for _, clusters := range tableClusterings {
					gt, et := JointTables(global, clusters), JointTables(every, clusters)
					for ci := range gt {
						if !slices.Equal(gt[ci].R, et[ci].R) || !slices.Equal(gt[ci].Q, et[ci].Q) {
							t.Fatalf("%s cluster %v: tables differ", name, clusters[ci])
						}
					}
				}
			}
		}
	}
}
