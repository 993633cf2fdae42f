package index

import "math"

// Rank returns the IDs i with provided[i] set, ordered by descending
// probs[i] and ascending ID within equal probabilities. −0 ranks as 0; NaN
// ranks above +Inf. It is a stable LSD radix sort over the bits of the
// probability, one pass per byte of the key, skipping every byte all keys
// share: far fewer distinct probabilities than triples leave most of the
// eight bytes shared. Both rankings of a snapshot — the model's Fuse result
// and Build's listings — start from it.
func Rank(probs []float64, provided []bool) []int32 {
	type rankKey struct {
		key uint64
		id  int32
	}
	keys := make([]rankKey, 0, len(provided))
	for i, ok := range provided {
		if ok {
			keys = append(keys, rankKey{rankBits(probs[i]), int32(i)})
		}
	}
	n := len(keys)
	var counts [8][256]int
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k.key>>(8*b))]++
		}
	}
	var tmp []rankKey
	for b := range counts {
		c := &counts[b]
		if n == 0 || c[byte(keys[0].key>>(8*b))] == n {
			continue
		}
		if tmp == nil {
			tmp = make([]rankKey, n)
		}
		sum := 0
		for i, m := range c {
			c[i] = sum
			sum += m
		}
		for _, k := range keys {
			d := byte(k.key >> (8 * b))
			tmp[c[d]] = k
			c[d]++
		}
		keys, tmp = tmp, keys
	}
	ids := make([]int32, n)
	for i, k := range keys {
		ids[i] = k.id
	}
	return ids
}

// rankBits maps a probability to a key that ascends as the probability
// descends, so equal keys are exactly equal probabilities: the float's bits
// put in unsigned order (the sign bit set for non-negatives, every bit
// flipped for negatives) and then complemented. −0 is read as 0.
func rankBits(p float64) uint64 {
	if p == 0 {
		p = 0
	}
	b := math.Float64bits(p)
	if b>>63 == 0 {
		b |= 1 << 63
	} else {
		b = ^b
	}
	return ^b
}
