// Package b declares an interface a's T satisfies.
package b

// Sizer is satisfied by a.T.
type Sizer interface{ Size() int }
