package b

import (
	"testing"

	fix "consumerfix/internal/a"
)

func TestCross(t *testing.T) {
	fix.CrossTestHelper()
	var v fix.T
	v.CrossTestMethod()
}
