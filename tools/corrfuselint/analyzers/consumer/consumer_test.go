package consumer

import (
	"testing"

	"corrfuselint/linttest"
)

func TestFixtures(t *testing.T) {
	linttest.Run(t, "fixtures", Analyzer)
}
