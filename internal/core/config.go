// Package core implements the paper's fusion algorithms: the independent
// Bayesian model PrecRec (Theorem 3.1), the exact correlation-aware model
// (Theorem 4.2), the linear-time aggressive approximation (Definition 4.5),
// and the elastic approximation (Algorithm 1).
//
// Every algorithm turns the observation pattern of a triple t — which sources
// provide it (St) and which in-scope sources do not (St̄) — into the ratio
// µ = Pr(Ot|t) / Pr(Ot|¬t), and then into the correctness probability
//
//	Pr(t | Ot) = 1 / (1 + (1−α)/α · 1/µ).
//
// The correlation-aware algorithms may factor the source set into clusters
// (independence assumed across clusters, exact or approximate treatment
// within each cluster), which is how the paper scales to the BOOK dataset.
package core

import (
	"fmt"
	"math"
	"sync"

	"corrfuse/internal/quality"
	"corrfuse/internal/stat"
	"corrfuse/internal/triple"
)

// probEps is the clamp applied to rates before they enter ratios and
// logarithms, so estimated rates of exactly 0 or 1 cannot produce NaNs.
const probEps = 1e-12

// sumEps is the floor applied to inclusion–exclusion sums: with estimated
// joint parameters the alternating sums can come out marginally negative.
const sumEps = 1e-15

// Config carries the inputs shared by all fusion algorithms.
type Config struct {
	// Dataset supplies the observation matrix.
	Dataset *triple.Dataset
	// Params supplies α, per-source and joint quality parameters.
	Params quality.Params
	// Scope decides which non-providing sources count as evidence
	// against a triple. Defaults to triple.ScopeGlobal{}.
	Scope triple.Scope
	// Clusters partitions the sources for the correlation-aware
	// algorithms: sources in different clusters are treated as
	// independent. Nil means a single cluster containing every source.
	// PrecRec ignores clusters (it assumes full independence).
	Clusters [][]triple.SourceID
}

// normalize fills defaults and validates the cluster partition.
func (c *Config) normalize() error {
	if c.Dataset == nil {
		return fmt.Errorf("core: Config.Dataset is nil")
	}
	if c.Params == nil {
		return fmt.Errorf("core: Config.Params is nil")
	}
	if c.Scope == nil {
		c.Scope = triple.ScopeGlobal{}
	}
	n := c.Dataset.NumSources()
	if c.Clusters == nil {
		all := make([]triple.SourceID, n)
		for i := range all {
			all[i] = triple.SourceID(i)
		}
		c.Clusters = [][]triple.SourceID{all}
		return nil
	}
	seen := make([]bool, n)
	for ci, cl := range c.Clusters {
		if len(cl) == 0 {
			return fmt.Errorf("core: cluster %d is empty", ci)
		}
		for _, s := range cl {
			if int(s) < 0 || int(s) >= n {
				return fmt.Errorf("core: cluster %d contains unknown source %d", ci, s)
			}
			if seen[s] {
				return fmt.Errorf("core: source %d appears in two clusters", s)
			}
			seen[s] = true
		}
	}
	for s, ok := range seen {
		if !ok {
			return fmt.Errorf("core: source %d missing from cluster partition", s)
		}
	}
	return nil
}

// maxClusterWidth bounds the clusters Elastic walks: a pattern holds a
// cluster's providers and in-scope members as stat.Set64 bitmasks over member
// positions, and a Set64 has 64 of them.
const maxClusterWidth = 64

// checkWidth fails when a cluster of the normalized config has more than max
// members. what names the refused computation, advice the way out.
func (c *Config) checkWidth(what string, max int, advice string) error {
	for _, cl := range c.Clusters {
		if len(cl) > max {
			return fmt.Errorf("core: %s infeasible for cluster of %d sources (max %d); %s", what, len(cl), max, advice)
		}
	}
	return nil
}

// Algorithm scores triples with correctness probabilities.
type Algorithm interface {
	// Name identifies the algorithm (for tables and logs).
	Name() string
	// Probability returns Pr(t | Ot) for one triple.
	Probability(id triple.TripleID) float64
	// Score returns Pr(t | Ot) for each listed triple.
	Score(ids []triple.TripleID) []float64
}

// muToProb converts µ into Pr(t|Ot) = 1/(1 + (1−α)/α · 1/µ) working through
// the log-odds to stay stable for extreme µ.
func muToProb(alpha, mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	if math.IsInf(mu, 1) {
		return 1
	}
	return stat.Sigmoid(stat.Logit(alpha) + math.Log(mu))
}

// pattern captures, for one cluster, which members provide a triple and
// which members are in scope. It is the memoization key for per-cluster µ.
type pattern struct {
	providers stat.Set64
	inScope   stat.Set64
}

// clusterView precomputes the local indexing of one cluster.
type clusterView struct {
	members []triple.SourceID
	// pos maps a SourceID to its member position, -1 for a source outside
	// the cluster; full is the set of every member position.
	pos  []int8
	full stat.Set64

	// r and q are the cluster's dense joint table (quality.JointTable),
	// indexed by member bitmask; nil for a cluster wider than
	// quality.MaxTableWidth, and for an Exact model under ScopeGlobal, which
	// turns them into its µ table.
	r, q []float64

	// absent is µ of the all-absent pattern (no member provides, every
	// member in scope), computed once on first use: under global scope it
	// is the pattern of every triple no member provides, so most (triple,
	// cluster) pairs of a many-cluster model read it here instead of
	// through the memo's lock.
	absentOnce sync.Once
	absent     float64

	mu    sync.Mutex
	cache map[pattern]float64
}

// newClusterView builds the view of one cluster over numSources sources.
func newClusterView(members []triple.SourceID, numSources int) *clusterView {
	cv := &clusterView{members: members, pos: make([]int8, numSources), cache: make(map[pattern]float64)}
	for s := range cv.pos {
		cv.pos[s] = -1
	}
	for i, s := range members {
		cv.pos[s] = int8(i)
		cv.full = cv.full.Add(i)
	}
	return cv
}

// tabledViews builds the cluster views of a normalized config, each with its
// joint table.
func tabledViews(cfg Config) []*clusterView {
	tables := quality.JointTables(cfg.Params, cfg.Clusters)
	views := make([]*clusterView, len(cfg.Clusters))
	for ci, cl := range cfg.Clusters {
		views[ci] = newClusterView(cl, cfg.Dataset.NumSources())
		views[ci].r, views[ci].q = tables[ci].R, tables[ci].Q
	}
	return views
}

// patternFor computes the observation pattern of triple id within the
// cluster under the given scope: one Provides search and one scope check per
// member. Under ScopeGlobal clusterModel.providerMasks finds every cluster's
// providers in one walk instead.
func (cv *clusterView) patternFor(d *triple.Dataset, sc triple.Scope, id triple.TripleID) pattern {
	var p pattern
	for i, s := range cv.members {
		if d.Provides(s, id) {
			p.providers = p.providers.Add(i)
			p.inScope = p.inScope.Add(i)
		} else if sc.InScope(d, s, id) {
			p.inScope = p.inScope.Add(i)
		}
	}
	return p
}

// clusterModel is the cluster walk Exact and Elastic share: µ is the product
// over the clusters, in cluster order, of µ_c for the triple's pattern in
// each. A cluster with a µ table (Exact's, under ScopeGlobal) answers with
// one read; any other computes µ_c per distinct pattern with patternMu, the
// method's own part, behind the cluster's memo.
type clusterModel struct {
	cfg       Config
	views     []*clusterView
	patternMu func(ci int, p pattern) float64

	// Under ScopeGlobal clusterOf maps a source to its cluster and mu has
	// one entry per cluster: its µ indexed by provider mask, or nil where
	// the method built none. Both are nil under other scopes.
	clusterOf []int32
	mu        [][]float64
}

// newClusterModel builds the walk over a normalized config; the caller sets
// patternMu.
func newClusterModel(cfg Config) clusterModel {
	m := clusterModel{cfg: cfg, views: tabledViews(cfg)}
	if _, global := cfg.Scope.(triple.ScopeGlobal); global {
		m.mu = make([][]float64, len(m.views))
		m.clusterOf = make([]int32, cfg.Dataset.NumSources())
		for ci, cl := range cfg.Clusters {
			for _, s := range cl {
				m.clusterOf[s] = int32(ci)
			}
		}
	}
	return m
}

// clusterMask is one cluster's provider mask for a triple.
type clusterMask struct {
	c    int32
	mask stat.Set64
}

// providerMasks appends to touched, sorted by cluster, the clusters triple
// id's providers touch with their provider masks, in one walk over the
// provider list: the ScopeGlobal patterns, every cluster missing from the
// result being all-absent.
func (m *clusterModel) providerMasks(id triple.TripleID, touched []clusterMask) []clusterMask {
	for _, s := range m.cfg.Dataset.Providers(id) {
		c := m.clusterOf[s]
		bit := stat.Set64(1) << m.views[c].pos[s]
		i := len(touched)
		for i > 0 && touched[i-1].c > c {
			i--
		}
		if i > 0 && touched[i-1].c == c {
			touched[i-1].mask |= bit
			continue
		}
		touched = append(touched, clusterMask{})
		copy(touched[i+1:], touched[i:])
		touched[i] = clusterMask{c, bit}
	}
	return touched
}

// Mu returns µ for a triple: the product of per-cluster ratios, in cluster
// order.
func (m *clusterModel) Mu(id triple.TripleID) float64 {
	mu := 1.0
	if m.clusterOf == nil {
		for ci, cv := range m.views {
			mu *= m.muCached(ci, cv.patternFor(m.cfg.Dataset, m.cfg.Scope, id))
		}
		return mu
	}
	var buf [16]clusterMask
	touched := m.providerMasks(id, buf[:0])
	for ci, cv := range m.views {
		var mask stat.Set64
		if len(touched) > 0 && touched[0].c == int32(ci) {
			mask = touched[0].mask
			touched = touched[1:]
		}
		if t := m.mu[ci]; t != nil {
			mu *= t[mask]
			continue
		}
		mu *= m.muCached(ci, pattern{providers: mask, inScope: cv.full})
	}
	return mu
}

// muCached returns the memoized µ_c of cluster ci's pattern p, computing it
// with patternMu on miss. The all-absent pattern is answered from absent
// without the lock.
func (m *clusterModel) muCached(ci int, p pattern) float64 {
	cv := m.views[ci]
	if p.providers.Empty() && p.inScope == cv.full {
		cv.absentOnce.Do(func() { cv.absent = m.patternMu(ci, p) })
		return cv.absent
	}
	cv.mu.Lock()
	v, ok := cv.cache[p]
	cv.mu.Unlock()
	if ok {
		return v
	}
	v = m.patternMu(ci, p)
	cv.mu.Lock()
	cv.cache[p] = v
	cv.mu.Unlock()
	return v
}

// Probability implements Algorithm.
func (m *clusterModel) Probability(id triple.TripleID) float64 {
	return muToProb(m.cfg.Params.Alpha(), m.Mu(id))
}

// Score implements Algorithm.
func (m *clusterModel) Score(ids []triple.TripleID) []float64 { return scoreAll(m.Probability, ids) }

// subsetIDs converts a local-index set into global source IDs.
func (cv *clusterView) subsetIDs(s stat.Set64) []triple.SourceID {
	elems := s.Elems()
	out := make([]triple.SourceID, len(elems))
	for i, e := range elems {
		out[i] = cv.members[e]
	}
	return out
}

// clampRate bounds a probability estimate away from 0 and 1.
func clampRate(v float64) float64 { return stat.Clamp(v, probEps, 1-probEps) }

// jointRecall returns the joint recall of a local subset: a table read. Only
// a cluster too wide for a table asks p, with r_∅ = 1 and the
// independence-product fallback when the parameter has no support — the
// values a table holds.
func (cv *clusterView) jointRecall(p quality.Params, s stat.Set64) float64 {
	if cv.r != nil {
		return cv.r[s]
	}
	if s.Empty() {
		return 1
	}
	ids := cv.subsetIDs(s)
	if r, ok := p.JointRecall(ids); ok {
		return r
	}
	return quality.IndepJointRecall(p, ids)
}

// jointFPR is jointRecall for the joint false positive rate (q_∅ = 1).
func (cv *clusterView) jointFPR(p quality.Params, s stat.Set64) float64 {
	if cv.q != nil {
		return cv.q[s]
	}
	if s.Empty() {
		return 1
	}
	ids := cv.subsetIDs(s)
	if q, ok := p.JointFPR(ids); ok {
		return q
	}
	return quality.IndepJointFPR(p, ids)
}

// scoreAll applies probability to each of ids.
func scoreAll(probability func(triple.TripleID) float64, ids []triple.TripleID) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = probability(id)
	}
	return out
}
