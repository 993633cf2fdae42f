// Package a declares one exported function or method per consumer rule,
// plus the shapes that have none.
package a

import "errors"

// (a) A reference from a non-test file of another package.
func UsedByCmd() {}

// (a) A reference from a non-test file of the same package.
func UsedInPackage() {}

func helper() { UsedInPackage() }

// (a) A generic function and a generic type's method, used instantiated:
// references resolve to the origin.
func Map[T any](xs []T) []T { return xs }

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

// (b) Referenced only from another package's tests.
func CrossTestHelper() {}

type T struct{}

// (b) A method selected by name in another package's tests.
func (t *T) CrossTestMethod() {}

// (c) Satisfies io.Reader, a named interface of the loaded graph.
func (t *T) Read(p []byte) (int, error) { return 0, nil }

// (c) Satisfies b.Sizer, declared in another package of the module.
func (t *T) Size() int { return 0 }

// (c) By-name conventions.
func (t *T) String() string { return "t" }

func (t *T) Error() string { return "t" }

func (t *T) Unwrap() error { return errors.ErrUnsupported }

// (d) Marked with a reason.
//
//corrfuse:api the root package re-exports it for library callers
func Marked() {}

// A marker without a reason is a finding.
//
//corrfuse:api
func MarkedNoReason() {} // want "//corrfuse:api on MarkedNoReason needs a one-line reason"

// Nothing references it.
func Dead() {} // want "Dead has no consumer: nothing references it"

func (t *T) DeadMethod() {} // want "\\(\\*T\\)\\.DeadMethod has no consumer: nothing references it"

// Only its own recursion references it.
func Recursive(n int) int { // want "Recursive has no consumer: nothing references it"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Only its own package's in-package test uses it.
func OwnTestOnly() {} // want "OwnTestOnly has no consumer outside its own package's tests"

// Only its own package's external test uses it.
func (t T) XTestOnly() {} // want "T\\.XTestOnly has no consumer outside its own package's tests"

// Unexported functions are out of scope.
func unused() {}
