package quality

import (
	"math/bits"

	"corrfuse/internal/triple"
)

// MaxTableWidth is the widest correlation cluster that gets a dense joint
// table. A table holds two float64 per subset of the cluster, 16·2ⁿ bytes:
// 128 B at n = 3, 64 KiB at n = 12, 16 MiB at n = 20 — and doubling from
// there, which is where a table stops being something every cluster of a
// model can have. It is also the widest cluster any default configuration
// builds (see cluster.Options.MaxClusterSize and the root package's
// ClusterAuto); wider clusters exist only on explicit request and are served
// by the Params interface, one subset at a time.
const MaxTableWidth = 20

// JointTable holds r_S and q_S for every subset S of one cluster's members,
// indexed by member bitmask (bit i set ⇔ members[i] ∈ S). Entries are final:
// r_∅ = q_∅ = 1, and a subset the parameters give no support for holds the
// independence product of its members' rates, multiplied in ascending member
// order — the value the fusion algorithms fall back to.
type JointTable struct {
	R, Q []float64
}

// JointTables builds the joint table of every cluster (a list of distinct
// sources) that is at most MaxTableWidth wide; a wider cluster's entry is the
// zero JointTable. An *Estimator fills all tables from one pass over its
// labeled triples; any other Params is asked for each subset once.
func JointTables(p Params, clusters [][]triple.SourceID) []JointTable {
	tables := make([]JointTable, len(clusters))
	total := 0
	for _, cl := range clusters {
		if len(cl) <= MaxTableWidth {
			total += 1 << len(cl)
		}
	}
	vals := make([]float64, 2*total)
	for ci, cl := range clusters {
		if len(cl) <= MaxTableWidth {
			size := 1 << len(cl)
			tables[ci] = JointTable{R: vals[:size:size], Q: vals[size : 2*size : 2*size]}
			vals = vals[2*size:]
		}
	}
	if e, ok := p.(*Estimator); ok {
		e.fillTables(clusters, tables)
		return tables
	}
	for ci, cl := range clusters {
		t := tables[ci]
		if t.R == nil {
			continue
		}
		t.R[0], t.Q[0] = 1, 1
		ids := make([]triple.SourceID, 0, len(cl))
		for mask := 1; mask < len(t.R); mask++ {
			ids = ids[:0]
			for v := uint(mask); v != 0; v &= v - 1 {
				ids = append(ids, cl[bits.TrailingZeros(v)])
			}
			var ok bool
			if t.R[mask], ok = p.JointRecall(ids); !ok {
				t.R[mask] = IndepJointRecall(p, ids)
			}
			if t.Q[mask], ok = p.JointFPR(ids); !ok {
				t.Q[mask] = IndepJointFPR(p, ids)
			}
		}
	}
	return tables
}

// patternCounter turns "these sources" into one member bitmask per cluster
// they touch, for every tabled cluster at once.
type patternCounter struct {
	// cluster[s] and bit[s] place source s; cluster[s] < 0 when s belongs
	// to no tabled cluster.
	cluster []int32
	bit     []uint32
	// cur[c] is the mask being accumulated for cluster c; touched lists
	// the clusters whose mask is non-zero.
	cur     []uint32
	touched []int32
}

func (pc *patternCounter) add(s triple.SourceID) {
	c := pc.cluster[s]
	if c < 0 {
		return
	}
	if pc.cur[c] == 0 {
		pc.touched = append(pc.touched, c)
	}
	pc.cur[c] |= pc.bit[s]
}

// flush hands every accumulated (cluster, mask) to fn and resets.
func (pc *patternCounter) flush(fn func(c int32, mask uint32)) {
	for _, c := range pc.touched {
		fn(c, pc.cur[c])
		pc.cur[c] = 0
	}
	pc.touched = pc.touched[:0]
}

// supersetSums replaces h[m] by Σ_{m' ⊇ m} h[m'] for the n-bit masks: after
// it, a pattern histogram holds for every subset the number of triples whose
// pattern contains it.
func supersetSums(h []uint32, n int) {
	for b := 0; b < n; b++ {
		bit := 1 << b
		for m := range h {
			if m&bit == 0 {
				h[m] += h[m|bit]
			}
		}
	}
}

// fillTables computes what JointRecall, JointFPR and the independence
// fallback return for every subset of every tabled cluster, from counts
// instead of one bitset intersection per subset: a single pass over the
// labeled triples histograms each cluster's provider patterns (all and true;
// under a non-global scope also the scope patterns of the true triples), and
// a superset sum per histogram yields the very integers JointPrecision and
// JointRecall pop-count — so the divisions, DeriveFPR and the support test
// see the same operands and every entry is bit-identical to the memoized
// path. Mask 0 of a histogram is never counted or read: r_∅ = q_∅ = 1.
func (e *Estimator) fillTables(clusters [][]triple.SourceID, tables []JointTable) {
	nS := e.d.NumSources()
	pc := patternCounter{
		cluster: make([]int32, nS),
		bit:     make([]uint32, nS),
		cur:     make([]uint32, len(clusters)),
	}
	for s := range pc.cluster {
		pc.cluster[s] = -1
	}
	_, global := e.opts.Scope.(triple.ScopeGlobal)
	perCluster := 2 // all, allTrue
	if !global {
		perCluster = 3 // + scopeTrue
	}
	total := 0
	for ci, cl := range clusters {
		if tables[ci].R == nil {
			continue
		}
		total += len(tables[ci].R)
		for i, s := range cl {
			pc.cluster[s], pc.bit[s] = int32(ci), 1<<i
		}
	}
	counts := make([]uint32, perCluster*total)
	all := make([][]uint32, len(clusters))
	allTrue := make([][]uint32, len(clusters))
	scopeTrue := make([][]uint32, len(clusters))
	for ci := range clusters {
		size := len(tables[ci].R)
		all[ci], allTrue[ci] = counts[:size], counts[size:2*size]
		if !global {
			scopeTrue[ci] = counts[2*size : 3*size]
		}
		counts = counts[perCluster*size:]
	}

	for pos, id := range e.labelled {
		w, b := pos/64, uint(pos%64)
		isTrue := e.labTrue[w]>>b&1 != 0
		for _, s := range e.d.Providers(id) {
			pc.add(s)
		}
		pc.flush(func(c int32, mask uint32) {
			all[c][mask]++
			if isTrue {
				allTrue[c][mask]++
			}
		})
		if global || !isTrue {
			continue
		}
		for s := 0; s < nS; s++ {
			if e.scopeLab[s][w]>>b&1 != 0 {
				pc.add(triple.SourceID(s))
			}
		}
		pc.flush(func(c int32, mask uint32) { scopeTrue[c][mask]++ })
	}

	minSup := e.minSupport()
	for ci, cl := range clusters {
		t := tables[ci]
		if t.R == nil {
			continue
		}
		supersetSums(all[ci], len(cl))
		supersetSums(allTrue[ci], len(cl))
		if !global {
			supersetSums(scopeTrue[ci], len(cl))
		}
		t.R[0], t.Q[0] = 1, 1
		for mask := 1; mask < len(t.R); mask++ {
			if mask&(mask-1) == 0 {
				s := cl[bits.TrailingZeros(uint(mask))]
				t.R[mask], t.Q[mask] = e.rec[s], e.fpr[s]
				continue
			}
			nAll, nTrue := int(all[ci][mask]), int(allTrue[ci][mask])
			nScope := len(e.trueIDs) // global scope: every true triple
			if !global {
				nScope = int(scopeTrue[ci][mask])
			}
			rOK, pOK := nScope > minSup, nAll > minSup
			var r float64
			if rOK {
				r = float64(nTrue) / float64(nScope)
				t.R[mask] = r
			} else {
				t.R[mask] = indepProduct(e.rec, cl, mask)
			}
			if pOK && rOK {
				t.Q[mask] = DeriveFPR(e.opts.Alpha, float64(nTrue)/float64(nAll), r)
			} else {
				t.Q[mask] = indepProduct(e.fpr, cl, mask)
			}
		}
	}
}

// indepProduct multiplies rate over the members of mask in ascending member
// order, as IndepJointRecall / IndepJointFPR do over the subset's ID list.
func indepProduct(rate []float64, members []triple.SourceID, mask int) float64 {
	out := 1.0
	for v := uint(mask); v != 0; v &= v - 1 {
		out *= rate[members[bits.TrailingZeros(v)]]
	}
	return out
}
