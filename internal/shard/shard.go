// Package shard holds the subject-hash routing function and the timing type
// the benchmark harness (bench/) still names. The fusion engine trains one
// model over the whole dataset and partitions nothing; see the root
// package's compat.go.
package shard

import "time"

// FNV-1a constants (hash/fnv, inlined to keep hashing allocation-free).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Of returns the shard index of a subject under an n-way partition: the
// FNV-1a hash of the subject modulo n (0 when n <= 1).
func Of(subject string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(offset64)
	for i := 0; i < len(subject); i++ {
		h ^= uint64(subject[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Timings is the stage cost breakdown of a partition build: the serial
// routing pass and the per-shard dataset builds. Nothing builds a partition,
// so every Timings is zero.
type Timings struct {
	Route time.Duration
	Build time.Duration
}
