package shard

import (
	"fmt"
	"testing"
)

func TestOfDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17} {
		for i := 0; i < 100; i++ {
			sub := fmt.Sprintf("subject-%d", i)
			got := Of(sub, n)
			if got < 0 || got >= n {
				t.Fatalf("Of(%q, %d) = %d out of range", sub, n, got)
			}
			if again := Of(sub, n); again != got {
				t.Fatalf("Of(%q, %d) not deterministic: %d then %d", sub, n, got, again)
			}
		}
	}
	if Of("anything", 0) != 0 || Of("anything", 1) != 0 {
		t.Fatal("n <= 1 must route everything to shard 0")
	}
}

// TestPartitionSpreadsSubjects: 400 subjects reach every one of 4 shards.
func TestPartitionSpreadsSubjects(t *testing.T) {
	var hits [4]int
	for i := 0; i < 400; i++ {
		hits[Of(fmt.Sprintf("e%d", i), len(hits))]++
	}
	for si, n := range hits {
		if n == 0 {
			t.Errorf("shard %d is empty over 400 subjects", si)
		}
	}
}
