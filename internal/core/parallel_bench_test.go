package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"corrfuse/internal/triple"
)

// cheapAlg is a scoring stub whose per-triple cost is a few nanoseconds, so
// a work-queue benchmark measures dispatch overhead, not scoring.
type cheapAlg struct{}

func (cheapAlg) Name() string { return "cheap" }
func (cheapAlg) Probability(id triple.TripleID) float64 {
	return 1 / (1 + float64(id))
}
func (cheapAlg) Score(ids []triple.TripleID) []float64 { return scoreAll(cheapAlg{}.Probability, ids) }

// mutexDispatch is the work queue ParallelScore used before the atomic
// cursor: a counter guarded by a mutex. Kept here as the benchmark baseline.
func mutexDispatch(a Algorithm, ids []triple.TripleID, workers, chunk int) []float64 {
	out := make([]float64, len(ids))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				lo := next
				next += chunk
				mu.Unlock()
				if lo >= len(ids) {
					return
				}
				hi := lo + chunk
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

// atomicDispatch is the same loop with the lock-free cursor ParallelScore
// now uses, with the chunk size parameterized for the comparison.
func atomicDispatch(a Algorithm, ids []triple.TripleID, workers, chunk int) []float64 {
	out := make([]float64, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(ids) {
					return
				}
				hi := lo + chunk
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

// BenchmarkWorkQueue contrasts the mutex-guarded and atomic work-queue
// counters under maximal contention: a tiny chunk size and a near-free
// per-triple cost, so workers hammer the counter. chunk=1 is the worst
// case; chunk=64 is ParallelScore's production setting, where the atomic
// cursor still wins but both amortize well.
func BenchmarkWorkQueue(b *testing.B) {
	ids := make([]triple.TripleID, 1<<16)
	for i := range ids {
		ids[i] = triple.TripleID(i)
	}
	workers := runtime.GOMAXPROCS(0)
	for _, chunk := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("mutex-chunk-%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mutexDispatch(cheapAlg{}, ids, workers, chunk)
			}
		})
		b.Run(fmt.Sprintf("atomic-chunk-%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				atomicDispatch(cheapAlg{}, ids, workers, chunk)
			}
		})
	}
}
