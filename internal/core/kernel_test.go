package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// The µ-table kernel is not bit-identical to the enumeration it replaces: the
// Möbius passes subtract in another order than the Kahan sum adds. These are
// the bounds the differential holds it to.
const (
	// kernelRelTol bounds |µ_c − reference| / reference for one cluster
	// wherever the reference's Pr(Ot|¬t) sum exceeds kernelMinQ; below
	// that the sum is a cancellation residue and only its sign is data.
	kernelRelTol = 1e-9
	kernelMinQ   = 1e-6
	// kernelTie is how close to 0.5 the reference probability must be
	// for a different accept decision to count as a rounding tie.
	kernelTie = 1e-12
)

// refExactSums is Exact's per-pattern inclusion–exclusion as it was before
// the µ tables, kept as the kernel's reference: 2^|St̄| Kahan-summed reads of
// the cluster's (untransformed) joint table or of p.
func refExactSums(cv *clusterView, p quality.Params, pat pattern) (r, q float64) {
	var rSum, qSum stat.KahanSum
	pat.inScope.Minus(pat.providers).Subsets(func(sub stat.Set64) bool {
		set := pat.providers.Union(sub)
		sign := 1.0
		if sub.Len()%2 == 1 {
			sign = -1
		}
		rSum.Add(sign * cv.jointRecall(p, set))
		qSum.Add(sign * cv.jointFPR(p, set))
		return true
	})
	return rSum.Sum(), qSum.Sum()
}

// refRatio is the reference's clamp and ratio.
func refRatio(r, q float64) float64 {
	if r < sumEps {
		r = sumEps
	}
	if q < sumEps {
		q = sumEps
	}
	return r / q
}

// exactRef scores a config the reference way: member-scan patterns, fresh
// joint tables, the enumeration above for every (triple, cluster).
type exactRef struct {
	cfg   Config // normalized
	views []*clusterView
}

func newExactRef(cfg Config) *exactRef {
	return &exactRef{cfg: cfg, views: tabledViews(cfg)}
}

// clusterMu is the reference µ_c of one pattern, and whether the clamp
// decided it.
func (r *exactRef) clusterMu(ci int, p pattern) (mu, q float64, clamped bool) {
	rs, qs := refExactSums(r.views[ci], r.cfg.Params, p)
	return refRatio(rs, qs), qs, rs < sumEps || qs < sumEps
}

// kernelCase is one configuration of the kernel differential.
type kernelCase struct {
	name string
	cfg  Config
}

// kernelCases is every table case plus random Manual parameters on random
// datasets — consistent joint tables drawn from a pattern distribution, and
// independence products perturbed until the alternating sums go negative —
// each unclustered and on a random partition, under both scopes.
func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	var cases []kernelCase
	for _, tc := range tableCases(t) {
		cases = append(cases, kernelCase{tc.name, tc.cfg(t)})
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		d := randomPatternDataset(rng, n, 400)
		params := randomManual(rng, n, seed%2 == 0)
		perm := rng.Perm(n)
		var partition [][]triple.SourceID
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(4)
			if hi > n {
				hi = n
			}
			var cl []triple.SourceID
			for _, i := range perm[lo:hi] {
				cl = append(cl, triple.SourceID(i))
			}
			partition = append(partition, cl)
			lo = hi
		}
		for _, scope := range []triple.Scope{triple.ScopeGlobal{}, triple.NewScopeSubject(d)} {
			for ci, clusters := range [][][]triple.SourceID{nil, partition} {
				cases = append(cases, kernelCase{
					name: fmt.Sprintf("random Manual seed %d (%d sources, consistent=%v) %T clustering %d", seed, n, seed%2 == 0, scope, ci),
					cfg:  Config{Dataset: d, Params: params, Scope: scope, Clusters: clusters},
				})
			}
		}
	}
	return cases
}

// randomPatternDataset draws triples over a few subjects, each provided by a
// random subset of n sources (some by none).
func randomPatternDataset(rng *rand.Rand, n, triples int) *triple.Dataset {
	d := triple.NewDataset()
	for i := 0; i < n; i++ {
		d.AddSource(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < triples; i++ {
		tr := triple.Triple{Subject: fmt.Sprintf("e%d", rng.Intn(25)), Predicate: "p", Object: fmt.Sprintf("o%d", i)}
		provided := false
		for s := 0; s < n; s++ {
			if rng.Float64() < 0.35 {
				d.Observe(triple.SourceID(s), tr)
				provided = true
			}
		}
		if !provided {
			d.SetLabel(tr, triple.False)
		}
	}
	return d
}

// randomManual gives every source and every subset of ≥ 2 sources a recall
// and an FPR. consistent draws them as the superset marginals of one random
// pattern distribution per class, so every Eq. 10–11 sum is a probability;
// otherwise each is its members' product times a factor in [0.3, 1.7), which
// leaves many sums negative and exercises the clamp.
func randomManual(rng *rand.Rand, n int, consistent bool) *quality.Manual {
	m := quality.NewManual(0.3 + 0.4*rng.Float64())
	marginals := func() []float64 {
		g := make([]float64, 1<<n)
		total := 0.0
		for i := range g {
			g[i] = rng.ExpFloat64()
			total += g[i]
		}
		for i := range g {
			g[i] /= total
		}
		for b := 0; b < n; b++ { // superset sums: g[S] = Pr(S ⊆ pattern)
			for mask := range g {
				if mask&(1<<b) == 0 {
					g[mask] += g[mask|1<<b]
				}
			}
		}
		return g
	}
	var rs, qs []float64
	if consistent {
		rs, qs = marginals(), marginals()
	} else {
		rs, qs = make([]float64, 1<<n), make([]float64, 1<<n)
		for s := 0; s < n; s++ {
			rs[1<<s], qs[1<<s] = 0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64()
		}
		for mask := 1; mask < 1<<n; mask++ {
			if mask&(mask-1) == 0 {
				continue
			}
			low := mask & -mask
			rs[mask] = math.Min(1, rs[mask^low]*rs[low]*(0.3+1.4*rng.Float64()))
			qs[mask] = math.Min(1, qs[mask^low]*qs[low]*(0.3+1.4*rng.Float64()))
		}
	}
	for mask := 1; mask < 1<<n; mask++ {
		var ids []triple.SourceID
		for s := 0; s < n; s++ {
			if mask&(1<<s) != 0 {
				ids = append(ids, triple.SourceID(s))
			}
		}
		if len(ids) == 1 {
			m.SetSource(ids[0], rs[mask], qs[mask])
			continue
		}
		m.SetJointRecall(ids, rs[mask])
		m.SetJointFPR(ids, qs[mask])
	}
	return m
}

// TestExactKernelMatchesEnumeration: on every kernel case the µ-table kernel
// (ScopeGlobal) agrees with the Kahan enumeration per (triple, cluster) to
// kernelRelTol wherever the reference Pr(Ot|¬t) sum exceeds kernelMinQ, and
// accepts exactly the triples the reference accepts except at rounding ties
// (reference |p − 0.5| < kernelTie). Under a subject scope Exact still
// enumerates and must equal the reference bit for bit. A multi-cluster
// global model with one cluster's table dropped takes the per-pattern path
// for that cluster beside table reads for the rest and is held to the same
// bounds. Parallel scoring equals serial scoring.
func TestExactKernelMatchesEnumeration(t *testing.T) {
	clamped, globalCases := 0, 0
	for _, kc := range kernelCases(t) {
		ex, err := NewExact(kc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, global := ex.cfg.Scope.(triple.ScopeGlobal)
		if global != (ex.mu != nil) {
			t.Fatalf("%s: µ tables built = %v under scope %T", kc.name, ex.mu != nil, ex.cfg.Scope)
		}
		models := []*Exact{ex}
		if global {
			globalCases++
		}
		if global && len(ex.views) > 1 {
			mixed, err := NewExact(kc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			mixed.mu[len(mixed.mu)-1] = nil
			models = append(models, mixed)
		}
		ref := newExactRef(ex.cfg)
		d, sc, alpha := ex.cfg.Dataset, ex.cfg.Scope, ex.cfg.Params.Alpha()
		ids := make([]triple.TripleID, d.NumTriples())
		for i := range ids {
			ids[i] = triple.TripleID(i)
		}
		for mi, m := range models {
			for _, id := range ids {
				refMu := 1.0
				for ci, cv := range ref.views {
					pat := cv.patternFor(d, sc, id)
					want, q, c := ref.clusterMu(ci, pat)
					if c && global {
						clamped++
					}
					refMu *= want
					if !global || m.mu[ci] == nil || q <= kernelMinQ {
						continue
					}
					if got := m.mu[ci][pat.providers]; math.Abs(got-want) > kernelRelTol*want {
						t.Fatalf("%s model %d: triple %d cluster %d: µ %v, enumeration %v (rel %.2g)", kc.name, mi, id, ci, got, want, math.Abs(got-want)/want)
					}
				}
				want, got := muToProb(alpha, refMu), m.Probability(id)
				if !global {
					if got != want {
						t.Fatalf("%s: triple %d scores %v, enumeration %v", kc.name, id, got, want)
					}
					continue
				}
				if (got > 0.5) != (want > 0.5) && math.Abs(want-0.5) >= kernelTie {
					t.Fatalf("%s model %d: triple %d: p %v, enumeration %v: decisions differ off a tie", kc.name, mi, id, got, want)
				}
			}
			serial := m.Score(ids)
			for i, p := range ParallelScore(m, ids, 4) {
				if p != serial[i] {
					t.Fatalf("%s model %d: triple %d scores %v on 4 workers, %v serially", kc.name, mi, ids[i], p, serial[i])
				}
			}
		}
	}
	if globalCases == 0 || clamped == 0 {
		t.Fatalf("%d global cases, %d clamped sums: the cases no longer exercise the kernel and its clamp", globalCases, clamped)
	}
}

// TestMuTableAllocatesNothing: scoring a triple off the µ tables allocates
// nothing, on one cluster and on several, and neither does a PrecRec or an
// Aggressive Probability off the log-ratio table.
func TestMuTableAllocatesNothing(t *testing.T) {
	for _, tc := range tableCases(t)[:2] {
		cfg := tc.cfg(t)
		ex, err := NewExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := NewPrecRec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := NewAggressive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids := providedIDs(ex.cfg.Dataset)
		var sink float64
		for _, f := range []struct {
			what string
			eval func(triple.TripleID) float64
		}{{"Exact.Mu", ex.Mu}, {"PrecRec.Probability", pr.Probability}, {"Aggressive.Probability", ag.Probability}} {
			if n := testing.AllocsPerRun(10, func() {
				for _, id := range ids {
					sink += f.eval(id)
				}
			}); n != 0 {
				t.Errorf("%s: %s over %d triples: %v allocations per run, want 0", tc.name, f.what, len(ids), n)
			}
		}
		_ = sink
	}
}
