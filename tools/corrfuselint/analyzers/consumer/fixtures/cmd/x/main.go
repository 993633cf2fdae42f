package main

import (
	"io"

	"consumerfix/internal/a"
	_ "consumerfix/internal/b"
)

func main() {
	a.UsedByCmd()
	_ = a.Map([]int{1})
	var b a.Box[string]
	_ = b.Get()
	_ = io.EOF // loads io, whose Reader a.T satisfies
}
