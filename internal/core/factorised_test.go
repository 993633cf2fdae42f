package core

import (
	"fmt"
	"math"
	"testing"

	"corrfuse/internal/quality"
	"corrfuse/internal/triple"
)

// factorisedRelTol bounds |µ − reference| / reference for PrecRec and
// Aggressive against the loops the log-ratio table replaced, and for the
// reductions between models: each side adds up the same logarithms, or
// multiplies the same ratios, in another order.
const factorisedRelTol = 1e-12

// refPrecRecLogMu is PrecRec.LogMu as it was before the log-ratio table, kept
// as the reference: two clamps, four logarithms and a Provides search per
// source, per triple.
func refPrecRecLogMu(cfg Config, id triple.TripleID) float64 {
	d, p, sc := cfg.Dataset, cfg.Params, cfg.Scope
	logMu := 0.0
	for s := 0; s < d.NumSources(); s++ {
		sid := triple.SourceID(s)
		r := clampRate(p.Recall(sid))
		q := clampRate(p.FPR(sid))
		switch {
		case d.Provides(sid, id):
			logMu += math.Log(r) - math.Log(q)
		case sc.InScope(d, sid, id):
			logMu += math.Log(1-r) - math.Log(1-q)
		}
	}
	return logMu
}

// refAggressive is Aggressive as it was before the log-ratio table, kept as
// the reference: each cluster's C⁺/C⁻ factors by member position, and the
// weighted product over a pattern's in-scope members.
type refAggressive struct {
	cfg           Config // normalized
	views         []*clusterView
	cplus, cminus [][]float64
}

func newRefAggressive(cfg Config) *refAggressive {
	a := &refAggressive{cfg: cfg}
	for _, cl := range cfg.Clusters {
		a.views = append(a.views, newClusterView(cl, cfg.Dataset.NumSources()))
		cp, cm := quality.AggressiveFactors(cfg.Params, cl)
		a.cplus = append(a.cplus, cp)
		a.cminus = append(a.cminus, cm)
	}
	return a
}

// clusterMu is the weighted product for one cluster/pattern.
func (a *refAggressive) clusterMu(ci int, p pattern) float64 {
	cv := a.views[ci]
	mu := 1.0
	for _, i := range p.inScope.Elems() {
		s := cv.members[i]
		r := clampRate(a.cplus[ci][i] * a.cfg.Params.Recall(s))
		q := clampRate(a.cminus[ci][i] * a.cfg.Params.FPR(s))
		if p.providers.Contains(i) {
			mu *= r / q
		} else {
			mu *= (1 - r) / (1 - q)
		}
	}
	return mu
}

// mu is the product of clusterMu over the member-scan patterns.
func (a *refAggressive) mu(id triple.TripleID) float64 {
	mu := 1.0
	for ci, cv := range a.views {
		mu *= a.clusterMu(ci, cv.patternFor(a.cfg.Dataset, a.cfg.Scope, id))
	}
	return mu
}

// allIDs lists every triple of d, provided or not.
func allIDs(d *triple.Dataset) []triple.TripleID {
	ids := make([]triple.TripleID, d.NumTriples())
	for i := range ids {
		ids[i] = triple.TripleID(i)
	}
	return ids
}

// checkAgrees fails unless µ got is within factorisedRelTol of want, the
// probabilities pGot and pWant within factorisedRelTol of each other, and
// both take the same accept decision off a rounding tie.
func checkAgrees(t *testing.T, what string, got, want, pGot, pWant float64) {
	t.Helper()
	if !(math.Abs(got-want) <= factorisedRelTol*want) {
		t.Fatalf("%s: µ %v, reference %v (rel %.2g)", what, got, want, math.Abs(got-want)/want)
	}
	if !(math.Abs(pGot-pWant) <= factorisedRelTol) {
		t.Fatalf("%s: p %v, reference %v", what, pGot, pWant)
	}
	if (pGot > 0.5) != (pWant > 0.5) && math.Abs(pWant-0.5) >= kernelTie {
		t.Fatalf("%s: p %v, reference %v: decisions differ off a tie", what, pGot, pWant)
	}
}

// TestFactorisedMatchesReference: on every kernel case — every table case,
// and random Manual parameters, each under both scopes, unclustered and
// clustered — PrecRec and Aggressive read from the log-ratio table score
// every triple as the loops they replaced do: µ within factorisedRelTol, the
// same decision off a tie, and the same scores serially and on four workers.
// The cases must put some rate outside the clamp, so that the clamp is data.
func TestFactorisedMatchesReference(t *testing.T) {
	clamped := 0
	for _, kc := range kernelCases(t) {
		pr, err := NewPrecRec(kc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := NewAggressive(kc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := pr.cfg
		ref := newRefAggressive(cfg)
		for ci, cl := range cfg.Clusters {
			for i, s := range cl {
				for _, v := range []float64{cfg.Params.Recall(s), cfg.Params.FPR(s), ref.cplus[ci][i] * cfg.Params.Recall(s), ref.cminus[ci][i] * cfg.Params.FPR(s)} {
					if v != clampRate(v) {
						clamped++
					}
				}
			}
		}
		alpha := cfg.Params.Alpha()
		ids := allIDs(cfg.Dataset)
		for _, id := range ids {
			want := math.Exp(refPrecRecLogMu(cfg, id))
			checkAgrees(t, fmt.Sprintf("%s PrecRec triple %d", kc.name, id), pr.Mu(id), want, pr.Probability(id), muToProb(alpha, want))
			want = ref.mu(id)
			checkAgrees(t, fmt.Sprintf("%s Aggressive triple %d", kc.name, id), ag.Mu(id), want, ag.Probability(id), muToProb(alpha, want))
		}
		for _, alg := range []Algorithm{pr, ag} {
			serial := alg.Score(ids)
			for i, p := range ParallelScore(alg, ids, 4) {
				if p != serial[i] {
					t.Fatalf("%s %s: triple %d scores %v on 4 workers, %v serially", kc.name, alg.Name(), ids[i], p, serial[i])
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no rate in any case reaches the clamp: the cases no longer exercise it")
	}
}

// singletons is the partition of n sources into one cluster each.
func singletons(n int) [][]triple.SourceID {
	out := make([][]triple.SourceID, n)
	for s := range out {
		out[s] = []triple.SourceID{triple.SourceID(s)}
	}
	return out
}

// TestExactOverSingletonsIsPrecRec: Theorem 4.2 over singleton clusters is
// Theorem 3.1. A singleton's Eq. 10–11 sums are r and q if the source
// provides the triple and 1−r, 1−q if it is a silent in-scope source, so
// Exact over the singleton partition scores every triple of every kernel
// case as PrecRec does, under both scopes. The two models bound degenerate
// rates differently (PrecRec clamps each rate into [probEps, 1−probEps],
// Exact floors each sum at sumEps), so Exact is given the rates PrecRec
// reads: the clamped ones.
func TestExactOverSingletonsIsPrecRec(t *testing.T) {
	for _, kc := range kernelCases(t) {
		cfg := kc.cfg
		n := cfg.Dataset.NumSources()
		m := quality.NewManual(cfg.Params.Alpha())
		for s := 0; s < n; s++ {
			sid := triple.SourceID(s)
			m.SetSource(sid, clampRate(cfg.Params.Recall(sid)), clampRate(cfg.Params.FPR(sid)))
		}
		cfg.Params, cfg.Clusters = m, singletons(n)
		pr, err := NewPrecRec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range allIDs(cfg.Dataset) {
			checkAgrees(t, fmt.Sprintf("%s triple %d", kc.name, id), ex.Mu(id), pr.Mu(id), ex.Probability(id), pr.Probability(id))
		}
	}
}

// TestAggressiveOnIndependenceIsPrecRec: with every joint parameter the
// product of its members' rates, every C⁺/C⁻ factor is 1 up to rounding and
// Aggressive scores every triple as PrecRec does (Corollary 4.6), on every
// kernel case's dataset, scope and clustering.
func TestAggressiveOnIndependenceIsPrecRec(t *testing.T) {
	for _, kc := range kernelCases(t) {
		cfg := kc.cfg
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		m := quality.NewManual(cfg.Params.Alpha())
		for s := 0; s < cfg.Dataset.NumSources(); s++ {
			sid := triple.SourceID(s)
			m.SetSource(sid, cfg.Params.Recall(sid), cfg.Params.FPR(sid))
		}
		for _, cl := range cfg.Clusters {
			subsets := [][]triple.SourceID{cl}
			for i := range cl {
				rest := append(append([]triple.SourceID(nil), cl[:i]...), cl[i+1:]...)
				subsets = append(subsets, rest)
			}
			for _, sub := range subsets {
				if len(sub) > 1 {
					m.SetJointRecall(sub, quality.IndepJointRecall(m, sub))
					m.SetJointFPR(sub, quality.IndepJointFPR(m, sub))
				}
			}
		}
		cfg.Params = m
		pr, err := NewPrecRec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := NewAggressive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range allIDs(cfg.Dataset) {
			checkAgrees(t, fmt.Sprintf("%s triple %d", kc.name, id), ag.Mu(id), pr.Mu(id), ag.Probability(id), pr.Probability(id))
		}
	}
}
