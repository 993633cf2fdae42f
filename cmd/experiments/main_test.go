package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunCheapExperiments(t *testing.T) {
	var buf bytes.Buffer
	for _, exp := range []string{"fig1b", "fig1c", "fig3", "fig4b"} {
		if err := run(&buf, exp, 1, 1, 2); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Figure 1b", "Union-25", "C+", "PrecRecCorr"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// copy, ablation and crowd reproduced no numbered figure and are gone.
	for _, exp := range []string{"fig99", "copy", "ablation", "crowd"} {
		var buf bytes.Buffer
		err := run(&buf, exp, 1, 1, 2)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: err = %v, want unknown experiment", exp, err)
		}
	}
}
