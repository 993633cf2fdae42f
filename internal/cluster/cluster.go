// Package cluster groups sources by pairwise correlation so the
// correlation-aware fusion algorithms stay tractable on datasets with many
// sources. Following Section 5 of the paper ("we divide sources into
// clusters based on their pairwise correlations, and assume that sources
// across clusters are independent"), sources whose pairwise correlation
// factors deviate from 1 are merged; everything else stays in singleton
// clusters.
package cluster

import (
	"math"
	"sort"

	"corrfuse/internal/quality"
	"corrfuse/internal/triple"
)

// Options configures correlation clustering.
type Options struct {
	// Threshold is the minimum significance (a z-score: observed minus
	// expected co-provision count, in standard deviations under
	// independence) for a pair to be considered correlated. Default 3.
	Threshold float64
	// MaxClusterSize caps cluster growth so the downstream
	// inclusion–exclusion stays feasible. Default
	// quality.MaxTableWidth: the widest cluster the correlation-aware
	// algorithms serve from a dense joint table (the paper's BOOK run
	// reports clusters up to 22 wide; ask for that explicitly).
	MaxClusterSize int
	// MinSupport is the minimum number of labeled triples jointly
	// provided by a pair for its correlation estimate to be trusted.
	// Pairs below it score 0 and are never merged; at or above it a pair
	// scores its full z-score. Default 8.
	MinSupport int
}

func (o *Options) normalize() {
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	if o.MaxClusterSize <= 0 {
		o.MaxClusterSize = quality.MaxTableWidth
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 8
	}
}

// edge is a correlated pair with its strength.
type edge struct {
	a, b     int
	strength float64
}

// Cluster partitions the sources of est's dataset into correlation
// clusters. Pairs are scored by the larger of their true-triple and
// false-triple z-scores (see pairStrength); pairs at or above the threshold
// are merged greedily in decreasing strength order, never growing a cluster
// past MaxClusterSize. The result is a partition covering every source,
// suitable for core.Config.Clusters. Scoring costs one PairCounts pass per
// pair: O(n²·L/64) word operations for n sources and L labeled triples, and
// no allocation.
func Cluster(est *quality.Estimator, opts Options) [][]triple.SourceID {
	opts.normalize()
	d := est.Dataset()
	n := d.NumSources()

	var edges []edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s := pairStrength(est, triple.SourceID(a), triple.SourceID(b), opts.MinSupport)
			if s >= opts.Threshold {
				edges = append(edges, edge{a: a, b: b, strength: s})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].strength > edges[j].strength })

	uf := newUnionFind(n)
	for _, e := range edges {
		ra, rb := uf.find(e.a), uf.find(e.b)
		if ra == rb {
			continue
		}
		if uf.size[ra]+uf.size[rb] > opts.MaxClusterSize {
			continue
		}
		uf.union(ra, rb)
	}

	groups := make(map[int][]triple.SourceID)
	for i := 0; i < n; i++ {
		r := uf.find(i)
		groups[r] = append(groups[r], triple.SourceID(i))
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]triple.SourceID, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// pairStrength returns the significance of the pair's deviation from
// independence: the larger of the true-side and false-side z-scores of the
// observed co-provision count against its independence expectation. Raw
// correlation-factor ratios are NOT used here — for sparse sources a handful
// of coincidences produces an enormous but meaningless factor, whereas the
// z-score correctly discounts low counts. Pairs whose joint support is below
// minSupport score 0.
func pairStrength(est *quality.Estimator, a, b triple.SourceID, minSupport int) float64 {
	bothTrue, bothFalse, aTrue, aFalse, bTrue, bFalse, totTrue, totFalse := est.PairCounts(a, b)
	if bothTrue+bothFalse < minSupport {
		return 0
	}
	z := func(both, an, bn, tot int) float64 {
		if tot == 0 {
			return 0
		}
		expected := float64(an) * float64(bn) / float64(tot)
		if expected <= 0 {
			return 0
		}
		return math.Abs(float64(both)-expected) / math.Sqrt(expected)
	}
	zt := z(bothTrue, aTrue, bTrue, totTrue)
	zf := z(bothFalse, aFalse, bFalse, totFalse)
	s := math.Max(zt, zf)
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return 0
	}
	return s
}

// unionFind is a small weighted union–find.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
