// Live answers are the model's answers. Thm 3.1 and 4.2 make a triple's
// posterior a function of its provider pattern and the trained parameters,
// and the parameters are estimated from labelled triples only (§2.2, §3.2),
// so an unlabelled claim from a known source moves no parameter: every
// untouched triple keeps its answer bit for bit across a Rebuild, and the
// online scorer's answer for a claimed triple is the one the Rebuild gives.
package corrfuse_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"corrfuse"
	"corrfuse/internal/dataset"
)

var (
	supervisedMethods = []corrfuse.Method{
		corrfuse.PrecRec, corrfuse.PrecRecCorr, corrfuse.PrecRecCorrAggressive, corrfuse.PrecRecCorrElastic,
	}
	clusterModes = []corrfuse.ClusterMode{corrfuse.ClusterAuto, corrfuse.ClusterAlways}
	modeNames    = map[corrfuse.ClusterMode]string{corrfuse.ClusterAuto: "ClusterAuto", corrfuse.ClusterAlways: "ClusterAlways"}
)

type namedDataset struct {
	name string
	d    *corrfuse.Dataset
}

// probeDatasets are Fig. 7's two workloads and a 12-source uniform one, each
// with every odd triple unlabelled so that there are unlabelled triples to
// claim.
func probeDatasets(t *testing.T) []namedDataset {
	t.Helper()
	var out []namedDataset
	add := func(name string, d *corrfuse.Dataset, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedDataset{name, unlabelOdd(d)})
	}
	d, err := dataset.SyntheticCorrelated(1, false)
	add("SyntheticCorrelated(1, false)", d, err)
	d, err = dataset.SyntheticCorrelated(1, true)
	add("SyntheticCorrelated(1, true)", d, err)
	d, err = dataset.Generate(dataset.UniformSpec(12, 6000, 0.5, 0.7, 0.4, 3))
	add("UniformSpec(12, 6000, 0.5, 0.7, 0.4, 3)", d, err)
	return out
}

// randomSpecs draws small dataset.Generate specs, some with a correlation
// group, from a committed seed.
func randomSpecs(t *testing.T, seed int64, count int) []namedDataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []namedDataset
	for i := 0; i < count; i++ {
		spec := dataset.SyntheticSpec{NumTrue: 100 + rng.Intn(200), NumFalse: 100 + rng.Intn(200), Seed: rng.Int63()}
		n := 3 + rng.Intn(6)
		for s := 0; s < n; s++ {
			spec.Sources = append(spec.Sources, dataset.SourceSpec{Precision: 0.4 + 0.5*rng.Float64(), Recall: 0.2 + 0.6*rng.Float64()})
		}
		if rng.Intn(2) == 0 {
			spec.Groups = []dataset.GroupSpec{{Members: []int{0, 1, 2}, OnTrue: rng.Intn(2) == 0, Strength: 0.5 + 0.5*rng.Float64()}}
		}
		d, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedDataset{fmt.Sprintf("random spec %d (seed %d)", i, seed), unlabelOdd(d)})
	}
	return out
}

// unlabelOdd returns a copy of d whose odd triples carry no label.
func unlabelOdd(d *corrfuse.Dataset) *corrfuse.Dataset {
	c := d.Clone()
	for id := 1; id < c.NumTriples(); id += 2 {
		c.SetLabel(c.Triple(corrfuse.TripleID(id)), corrfuse.Unknown)
	}
	return c
}

// pickSource returns a random source that does not provide id and that ok
// accepts, false when there is none.
func pickSource(rng *rand.Rand, d *corrfuse.Dataset, id corrfuse.TripleID, ok func(corrfuse.SourceID) bool) (corrfuse.SourceID, bool) {
	var candidates []corrfuse.SourceID
	for s := 0; s < d.NumSources(); s++ {
		if sid := corrfuse.SourceID(s); !d.Provides(sid, id) && ok(sid) {
			candidates = append(candidates, sid)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

func anySource(corrfuse.SourceID) bool { return true }

// TestUnlabelledClaimsLeaveModelUnchanged is the relation live scoring rests
// on, under global scope: claims from known sources on unlabelled triples,
// and new unlabelled triples, leave every untouched triple's probability
// bit-identical after a Rebuild, for every supervised method and both
// clustering modes.
func TestUnlabelledClaimsLeaveModelUnchanged(t *testing.T) {
	sets := append(probeDatasets(t), randomSpecs(t, 20140622, 6)...)
	for _, set := range sets {
		for _, method := range supervisedMethods {
			for _, mode := range clusterModes {
				d := set.d
				f, err := corrfuse.New(d, corrfuse.Options{Method: method, Clustering: mode})
				if err != nil {
					t.Fatalf("%s %v: %v", set.name, method, err)
				}
				rng := rand.New(rand.NewSource(int64(method)*10 + int64(mode)))
				d2 := d.Clone()
				touched := make([]bool, d.NumTriples())
				for id := 1; id < d.NumTriples(); id += 2 {
					if rng.Intn(2) == 0 {
						continue
					}
					if s, ok := pickSource(rng, d, corrfuse.TripleID(id), anySource); ok {
						d2.Observe(s, d.Triple(corrfuse.TripleID(id)))
						touched[id] = true
					}
				}
				for i := 0; i < 40; i++ {
					d2.Observe(corrfuse.SourceID(rng.Intn(d.NumSources())), corrfuse.Triple{Subject: fmt.Sprintf("fresh-%d", i%25), Predicate: "p", Object: "v"})
				}
				checkUntouched(t, fmt.Sprintf("%s %v %s", set.name, method, modeNames[mode]), f, d2, touched)
			}
		}
	}
}

// checkUntouched rebuilds f over d2 and fails unless every triple of f's
// dataset that touched does not mark keeps its probability bit for bit.
func checkUntouched(t *testing.T, name string, f *corrfuse.Fuser, d2 *corrfuse.Dataset, touched []bool) {
	t.Helper()
	f2, err := f.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	d, moved := f.Dataset(), 0
	for id := 0; id < d.NumTriples(); id++ {
		tid := corrfuse.TripleID(id)
		if p, q := f.ProbabilityByID(tid), f2.ProbabilityByID(tid); !touched[id] && math.Float64bits(p) != math.Float64bits(q) {
			if moved == 0 {
				t.Errorf("%s: untouched %v moved from %v to %v", name, d.Triple(tid), p, q)
			}
			moved++
		}
	}
	if moved > 0 {
		t.Errorf("%s: %d untouched triples moved", name, moved)
	}
}

// liveVersusRebuild claims each odd (unlabelled) triple of d once, from a
// random non-provider that ok accepts, through f's online scorer, and returns
// how many of the live decisions a Rebuild over the same claims reverses,
// the largest |Δp|, and the number of claims.
func liveVersusRebuild(t *testing.T, f *corrfuse.Fuser, seed int64, ok func(id corrfuse.TripleID, s corrfuse.SourceID) bool) (reversed int, maxDiff float64, claims int) {
	t.Helper()
	d := f.Dataset()
	on, err := f.Online(true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	d2 := d.Clone()
	var ids []corrfuse.TripleID
	var live []float64
	for id := 1; id < d.NumTriples(); id += 2 {
		tid := corrfuse.TripleID(id)
		s, found := pickSource(rng, d, tid, func(s corrfuse.SourceID) bool { return ok(tid, s) })
		if !found {
			continue
		}
		p, err := on.Observe(s, d.Triple(tid))
		if err != nil {
			t.Fatal(err)
		}
		d2.Observe(s, d.Triple(tid))
		ids, live = append(ids, tid), append(live, p)
	}
	f2, err := f.Rebuild(d2)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		q := f2.ProbabilityByID(id)
		if (live[i] > 0.5) != (q > 0.5) {
			reversed++
		}
		maxDiff = math.Max(maxDiff, math.Abs(live[i]-q))
	}
	return reversed, maxDiff, len(ids)
}

// TestLiveAnswersEqualRebuild: under global scope, one claim from a random
// known non-provider on each unlabelled triple is scored live as the
// Rebuild over the same claims scores it, for every supervised method and
// both clustering modes.
func TestLiveAnswersEqualRebuild(t *testing.T) {
	for _, set := range probeDatasets(t) {
		for _, method := range supervisedMethods {
			for _, mode := range clusterModes {
				f, err := corrfuse.New(set.d, corrfuse.Options{Method: method, Clustering: mode})
				if err != nil {
					t.Fatalf("%s %v: %v", set.name, method, err)
				}
				reversed, maxDiff, claims := liveVersusRebuild(t, f, 7, func(corrfuse.TripleID, corrfuse.SourceID) bool { return true })
				if reversed > 0 || maxDiff > 1e-12 {
					t.Errorf("%s %v %s: the rebuild reverses %d of %d live decisions, max |Δp| %.3g",
						set.name, method, modeNames[mode], reversed, claims, maxDiff)
				}
			}
		}
	}
}

// subjectCoverage maps each subject of d to the sources providing a triple
// of it: the subject scope's in-scope sets.
func subjectCoverage(d *corrfuse.Dataset) map[string]map[corrfuse.SourceID]bool {
	cov := make(map[string]map[corrfuse.SourceID]bool)
	for id := 0; id < d.NumTriples(); id++ {
		sub := d.Triple(corrfuse.TripleID(id)).Subject
		if cov[sub] == nil {
			cov[sub] = make(map[corrfuse.SourceID]bool)
		}
		for _, s := range d.Providers(corrfuse.TripleID(id)) {
			cov[sub][s] = true
		}
	}
	return cov
}

// TestSubjectScopeLiveAnswersEqualRebuild is the subject-scope case on the
// simulated BOOK data: a claim from a source that already covers the
// triple's subject moves no parameter and no source's coverage, so untouched
// triples keep their answers bit for bit and the live answer is the
// Rebuild's. A claim that extends a source's coverage makes that source
// accountable for the subject's other triples, which a Rebuild folds in and
// live scoring cannot; its disagreement rate is logged, not bounded.
func TestSubjectScopeLiveAnswersEqualRebuild(t *testing.T) {
	book, err := dataset.SimulatedBook(1)
	if err != nil {
		t.Fatal(err)
	}
	d := unlabelOdd(book)
	cov := subjectCoverage(d)
	covers := func(id corrfuse.TripleID, s corrfuse.SourceID) bool { return cov[d.Triple(id).Subject][s] }
	extends := func(id corrfuse.TripleID, s corrfuse.SourceID) bool { return !covers(id, s) }
	for _, method := range supervisedMethods {
		f, err := corrfuse.New(d, corrfuse.Options{Method: method, Scope: corrfuse.NewScopeSubject(d), Smoothing: 0.5})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		reversed, maxDiff, claims := liveVersusRebuild(t, f, 11, covers)
		if claims < 500 || reversed > 0 || maxDiff > 1e-12 {
			t.Errorf("%v: the rebuild reverses %d of %d live decisions, max |Δp| %.3g", method, reversed, claims, maxDiff)
		}

		// The relation itself: untouched triples do not move.
		rng := rand.New(rand.NewSource(13))
		d2 := d.Clone()
		touched := make([]bool, d.NumTriples())
		for id := 1; id < d.NumTriples(); id += 2 {
			tid := corrfuse.TripleID(id)
			if s, ok := pickSource(rng, d, tid, func(s corrfuse.SourceID) bool { return covers(tid, s) }); ok {
				d2.Observe(s, d.Triple(tid))
				touched[id] = true
			}
		}
		checkUntouched(t, method.String(), f, d2, touched)

		reversed, maxDiff, claims = liveVersusRebuild(t, f, 17, extends)
		t.Logf("%v: claims extending a source's coverage: the rebuild reverses %d of %d live decisions, max |Δp| %.3g",
			method, reversed, claims, maxDiff)
	}
}

// customScope is a scope Online has no in-scope set for a new triple under.
type customScope struct{}

func (customScope) InScope(*corrfuse.Dataset, corrfuse.SourceID, corrfuse.TripleID) bool { return true }

// TestOnlineRefusals: Online refuses, by name, the unsupervised methods (no
// trained model) and a custom scope; an out-of-range source is an Observe
// error.
func TestOnlineRefusals(t *testing.T) {
	d := dataset.Obama()
	u, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.UnionK})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Online(true); err == nil || !strings.Contains(err.Error(), "Union-50") {
		t.Errorf("UnionK: Online error %v, want one naming the method", err)
	}
	c, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRec, Scope: customScope{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Online(true); err == nil || !strings.Contains(err.Error(), "customScope") {
		t.Errorf("custom scope: Online error %v, want one naming the scope", err)
	}
	f, err := corrfuse.New(d, corrfuse.Options{Method: corrfuse.PrecRec})
	if err != nil {
		t.Fatal(err)
	}
	on, err := f.Online(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.Observe(corrfuse.SourceID(d.NumSources()), d.Triple(0)); err == nil {
		t.Error("Observe accepted an out-of-range source")
	}
	if on.Len() != 0 {
		t.Errorf("a refused claim left %d triples observed", on.Len())
	}
}

// TestOnlineObserve: a triple's first claim starts from its providers in the
// Fuser's dataset, so re-claiming one of them answers the batch probability
// bit for bit; a duplicate claim changes nothing; a triple never observed is
// unknown.
func TestOnlineObserve(t *testing.T) {
	d := dataset.Obama()
	for _, method := range supervisedMethods {
		f, err := corrfuse.New(d, corrfuse.Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		on, err := f.Online(true)
		if err != nil {
			t.Fatal(err)
		}
		observed := 0
		for id := 0; id < d.NumTriples(); id++ {
			tid := corrfuse.TripleID(id)
			provs, tt := d.Providers(tid), d.Triple(tid)
			if len(provs) == 0 {
				continue
			}
			observed++
			p, err := on.Observe(provs[0], tt)
			if err != nil {
				t.Fatal(err)
			}
			if want := f.ProbabilityByID(tid); p != want || on.Providers(tt) != len(provs) {
				t.Errorf("%v %v: re-claimed %v with %d providers, batch %v with %d", method, tt, p, on.Providers(tt), want, len(provs))
			}
			if again, _ := on.Observe(provs[len(provs)-1], tt); again != p || on.Providers(tt) != len(provs) {
				t.Errorf("%v %v: a duplicate claim moved %v to %v", method, tt, p, again)
			}
			if q, ok := on.Probability(tt); !ok || q != p {
				t.Errorf("%v %v: Probability (%v, %v), Observe answered %v", method, tt, q, ok, p)
			}
		}
		if on.Len() != observed {
			t.Errorf("%v: Len %d, %d triples observed", method, on.Len(), observed)
		}
		if _, ok := on.Probability(corrfuse.Triple{Subject: "nobody"}); ok {
			t.Errorf("%v: a triple never observed is known", method)
		}
	}
}
