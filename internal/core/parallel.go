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
// algorithms in this package are safe for concurrent scoring: the joint
// tables and each cluster's member-position index are read-only after
// construction, the all-absent pattern's µ is computed once under a
// sync.Once, every other pattern read goes through a mutex-guarded memo,
// and so does the estimator's joint-statistic memo that a cluster too wide
// for a table still goes through.
//
// What a second worker buys depends on where the time is (measured on 2
// vCPUs, Fuser.Freeze, 1 worker → 2 workers). When the 2ⁿ sums dominate —
// 20 sources in one cluster, 20k triples — 5.6 s → 2.6 s, linear. On the
// batch-fuse shape — 12 sources, 50k triples, 3.4k distinct patterns — the
// sums are 15–25 ms either way (bench's core.exact_score_ms reads 22–25),
// about a sixth of what `fuse -method corr` takes on that file end to end;
// README's "where fuse's wall goes" has the other stages.
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
