package stat

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set64 is a set over a universe of at most 64 elements, used to index source
// subsets in the correlation computations. Element i is member i of the
// cluster being analyzed. The zero value is the empty set.
type Set64 uint64

// NewSet64 builds a set from the given elements.
func NewSet64(elems ...int) Set64 {
	var s Set64
	for _, e := range elems {
		s = s.Add(e)
	}
	return s
}

// FullSet64 returns the set {0, …, n-1}. It panics for n > 64.
func FullSet64(n int) Set64 {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("stat: FullSet64(%d) out of range", n))
	}
	if n == 64 {
		return ^Set64(0)
	}
	return Set64(1)<<uint(n) - 1
}

// Add returns s with element e added.
func (s Set64) Add(e int) Set64 {
	if e < 0 || e >= 64 {
		panic(fmt.Sprintf("stat: Set64 element %d out of range", e))
	}
	return s | 1<<uint(e)
}

// Remove returns s with element e removed.
func (s Set64) Remove(e int) Set64 {
	if e < 0 || e >= 64 {
		panic(fmt.Sprintf("stat: Set64 element %d out of range", e))
	}
	return s &^ (1 << uint(e))
}

// Contains reports whether e is in s.
func (s Set64) Contains(e int) bool {
	if e < 0 || e >= 64 {
		return false
	}
	return s&(1<<uint(e)) != 0
}

// Union returns s ∪ t.
func (s Set64) Union(t Set64) Set64 { return s | t }

// Minus returns s \ t.
func (s Set64) Minus(t Set64) Set64 { return s &^ t }

// IsSubsetOf reports whether every element of s is in t.
func (s Set64) IsSubsetOf(t Set64) bool { return s&^t == 0 }

// Len returns |s|.
func (s Set64) Len() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether s has no elements.
func (s Set64) Empty() bool { return s == 0 }

// Elems returns the elements of s in ascending order.
func (s Set64) Elems() []int {
	out := make([]int, 0, s.Len())
	for v := uint64(s); v != 0; {
		e := bits.TrailingZeros64(v)
		out = append(out, e)
		v &= v - 1
	}
	return out
}

// String renders the set as {a,b,c}.
func (s Set64) String() string {
	elems := s.Elems()
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = fmt.Sprintf("%d", e)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Subsets calls fn for every subset of s, including the empty set and s
// itself, in an arbitrary but deterministic order. If fn returns false the
// enumeration stops early.
func (s Set64) Subsets(fn func(Set64) bool) {
	// Standard subset-enumeration trick: iterate sub = (sub-1) & s.
	sub := uint64(s)
	for {
		if !fn(Set64(sub)) {
			return
		}
		if sub == 0 {
			return
		}
		sub = (sub - 1) & uint64(s)
	}
}

// SubsetsOfSize calls fn for every subset of s with exactly k elements.
// If fn returns false the enumeration stops early.
func (s Set64) SubsetsOfSize(k int, fn func(Set64) bool) {
	// Fixed-size scratch keeps the enumeration off the heap: it runs once
	// per level inside the elastic approximation's per-pattern kernel.
	var elemBuf, idxBuf [64]int
	elems := elemBuf[:0]
	for v := uint64(s); v != 0; v &= v - 1 {
		elems = append(elems, bits.TrailingZeros64(v))
	}
	n := len(elems)
	if k < 0 || k > n {
		return
	}
	if k == 0 {
		fn(0)
		return
	}
	// Gosper-style combination enumeration over positions, mapped through
	// elems so the subsets are subsets of s rather than of {0..n-1}.
	idx := idxBuf[:k]
	for i := range idx {
		idx[i] = i
	}
	for {
		var sub Set64
		for _, i := range idx {
			sub = sub.Add(elems[i])
		}
		if !fn(sub) {
			return
		}
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
