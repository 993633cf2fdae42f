// Package analyzers enumerates the corrfuselint suite: one analyzer
// per invariant the repo has already paid to learn (see each package's
// doc for the motivating PR).
package analyzers

import (
	"corrfuselint/analyzers/consumer"
	"corrfuselint/analyzers/ctxflow"
	"corrfuselint/analyzers/errswallow"
	"corrfuselint/analyzers/hotpathalloc"
	"corrfuselint/analyzers/labelbound"
	"corrfuselint/analyzers/lockacrossio"
	"corrfuselint/analyzers/regonce"
	"corrfuselint/lint"
)

// All returns the full suite in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		consumer.Analyzer,
		ctxflow.Analyzer,
		errswallow.Analyzer,
		hotpathalloc.Analyzer,
		labelbound.Analyzer,
		lockacrossio.Analyzer,
		regonce.Analyzer,
	}
}
