package stat

import (
	"testing"
	"testing/quick"
)

func TestSet64Basics(t *testing.T) {
	s := NewSet64(1, 3, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(3) || s.Contains(2) || s.Contains(-1) || s.Contains(64) {
		t.Error("Contains broken")
	}
	s = s.Add(2)
	if got := s.Elems(); len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 5 {
		t.Errorf("Elems = %v", got)
	}
	s = s.Remove(3)
	if s.Contains(3) || s.Len() != 3 {
		t.Error("Remove broken")
	}
	if s.String() != "{1,2,5}" {
		t.Errorf("String = %s", s.String())
	}
}

func TestSet64Ops(t *testing.T) {
	a := NewSet64(0, 1, 2)
	b := NewSet64(2, 3)
	if got := a.Union(b); got != NewSet64(0, 1, 2, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Minus(b); got != NewSet64(0, 1) {
		t.Errorf("Minus = %v", got)
	}
	if !NewSet64(1).IsSubsetOf(a) || b.IsSubsetOf(a) {
		t.Error("IsSubsetOf broken")
	}
	if !Set64(0).Empty() || a.Empty() {
		t.Error("Empty broken")
	}
}

func TestFullSet64(t *testing.T) {
	if FullSet64(0) != 0 {
		t.Error("FullSet64(0)")
	}
	if got := FullSet64(5); got.Len() != 5 || !got.Contains(4) || got.Contains(5) {
		t.Errorf("FullSet64(5) = %v", got)
	}
	if got := FullSet64(64); got.Len() != 64 {
		t.Errorf("FullSet64(64).Len = %d", got.Len())
	}
}

func TestSubsetsEnumeratesAll(t *testing.T) {
	s := NewSet64(1, 4, 9)
	seen := map[Set64]bool{}
	s.Subsets(func(sub Set64) bool {
		if !sub.IsSubsetOf(s) {
			t.Fatalf("%v is not a subset of %v", sub, s)
		}
		if seen[sub] {
			t.Fatalf("duplicate subset %v", sub)
		}
		seen[sub] = true
		return true
	})
	if len(seen) != 8 {
		t.Errorf("enumerated %d subsets, want 8", len(seen))
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	count := 0
	NewSet64(0, 1, 2).Subsets(func(Set64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop after %d", count)
	}
}

func TestSubsetsOfSize(t *testing.T) {
	s := NewSet64(2, 3, 5, 7, 11)
	for k := 0; k <= 5; k++ {
		seen := map[Set64]bool{}
		s.SubsetsOfSize(k, func(sub Set64) bool {
			if sub.Len() != k || !sub.IsSubsetOf(s) {
				t.Fatalf("bad subset %v for k=%d", sub, k)
			}
			if seen[sub] {
				t.Fatalf("duplicate %v", sub)
			}
			seen[sub] = true
			return true
		})
		if want := []int{1, 5, 10, 10, 5, 1}[k]; len(seen) != want {
			t.Errorf("k=%d: %d subsets, want %d", k, len(seen), want)
		}
	}
	// Out-of-range sizes enumerate nothing.
	called := false
	s.SubsetsOfSize(6, func(Set64) bool { called = true; return true })
	if called {
		t.Error("k > |s| should enumerate nothing")
	}
}

func TestSubsetsMatchesSizeUnion(t *testing.T) {
	// Subsets == union over k of SubsetsOfSize.
	f := func(raw uint16) bool {
		s := Set64(raw)
		all := map[Set64]bool{}
		s.Subsets(func(sub Set64) bool { all[sub] = true; return true })
		count := 0
		for k := 0; k <= s.Len(); k++ {
			s.SubsetsOfSize(k, func(sub Set64) bool {
				if !all[sub] {
					t.Fatalf("SubsetsOfSize produced %v not in Subsets", sub)
				}
				count++
				return true
			})
		}
		return count == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
