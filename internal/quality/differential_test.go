package quality

import (
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
