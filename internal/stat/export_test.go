package stat

import "fmt"

// Remove returns s with element e removed.
func (s Set64) Remove(e int) Set64 {
	if e < 0 || e >= 64 {
		panic(fmt.Sprintf("stat: Set64 element %d out of range", e))
	}
	return s &^ (1 << uint(e))
}
