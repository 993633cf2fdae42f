// Package pub is outside internal/: its exports are an API and need no
// consumer in the module.
package pub

func Unused() {}
