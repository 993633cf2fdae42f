package a_test

import (
	"testing"

	"consumerfix/internal/a"
)

func TestX(t *testing.T) {
	var v a.T
	v.XTestOnly()
}
