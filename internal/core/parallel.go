package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"corrfuse/internal/triple"
)

// scoreChunk is the number of triples a worker claims per counter bump.
// Large enough to amortize the claim, small enough to balance uneven
// per-triple costs (pattern-cache misses are much slower than hits).
const scoreChunk = 64

// ParallelScore scores ids with the given number of worker goroutines
// (0 or negative means GOMAXPROCS). The paper notes that PrecRecCorr
// parallelizes well because the per-pattern terms are independent; all
// algorithms in this package are safe for concurrent scoring: PrecRec's and
// Aggressive's per-source log-ratio table, the joint tables, Exact's µ tables
// and each cluster's member-position index are read-only after
// construction. PrecRec and Aggressive take no lock at all, and neither does
// Exact under ScopeGlobal on a tabled cluster. The per-pattern paths — Exact
// under other scopes or on a cluster too wide for a table, and Elastic —
// compute the all-absent pattern's µ once under a sync.Once and read every
// other pattern through a mutex-guarded memo, as does the estimator's
// joint-statistic memo a cluster too wide for a table still goes through.
//
// What a second worker buys depends on where the time is (measured on 2
// vCPUs). When per-pattern 2ⁿ sums dominate, close to linear: they did on
// the global path before the µ tables — 20 sources in one cluster, 20k
// triples, Fuser.Freeze 5.6 s on 1 worker, 2.6 s on 2 — and they still do on
// the per-pattern paths. With the µ tables that whole `fuse -method corr`
// run takes 0.16 s, and on the batch-fuse shape — 12 sources, 50k triples,
// one cluster — the exact Freeze takes about 4 ms, so a second worker has
// little left to split; README's "where fuse's wall goes" has the other
// stages.
//
// The work queue is a single atomic cursor rather than a mutex-guarded
// counter: claiming a chunk is one lock-free fetch-add, so the queue never
// serializes workers behind a lock even when chunks drain quickly (see
// BenchmarkWorkQueue for the contention comparison).
func ParallelScore(a Algorithm, ids []triple.TripleID, workers int) []float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(ids) < 2*workers {
		return a.Score(ids)
	}
	out := make([]float64, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(scoreChunk)) - scoreChunk
				if lo >= len(ids) {
					return
				}
				hi := lo + scoreChunk
				if hi > len(ids) {
					hi = len(ids)
				}
				for i := lo; i < hi; i++ {
					out[i] = a.Probability(ids[i])
				}
			}
		}()
	}
	wg.Wait()
	return out
}
