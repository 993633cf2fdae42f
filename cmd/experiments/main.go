// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows/series the paper
// reports (on the simulated substitutes of the proprietary datasets — see
// internal/dataset/simulated.go).
//
// Usage:
//
//	experiments -exp fig1b|fig1c|fig3|fig4a|fig4b|fig4c|fig5a|fig5b|fig6a|fig6b|fig6c|fig7|all
//	            [-seed N] [-reps N] [-levels N] [-curves DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"corrfuse/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig1b, fig1c, fig3, fig4a, fig4b, fig4c, fig5a, fig5b, fig6a, fig6b, fig6c, fig7, all)")
	seed := flag.Int64("seed", 1, "random seed for data simulation")
	reps := flag.Int("reps", 0, "repetitions for the synthetic sweeps (0 = paper default)")
	levels := flag.Int("levels", 5, "maximum elastic level for fig5a")
	curves := flag.String("curves", "", "directory to export PR/ROC curve TSVs for fig4 experiments")
	flag.Parse()

	if *curves != "" {
		if err := exportCurves(*curves, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if err := run(os.Stdout, *exp, *seed, *reps, *levels); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, seed int64, reps, levels int) error {
	runners := map[string]func() error{
		"fig1b": func() error { return experiments.PrintFig1b(w) },
		"fig1c": func() error { return experiments.PrintFig1c(w) },
		"fig3":  func() error { return experiments.PrintFig3(w) },
		"fig4a": func() error { return experiments.PrintFig4(w, "reverb", seed) },
		"fig4b": func() error { return experiments.PrintFig4(w, "restaurant", seed) },
		"fig4c": func() error { return experiments.PrintFig4(w, "book", seed) },
		"fig5a": func() error { return experiments.PrintFig5a(w, seed, levels) },
		"fig5b": func() error { return experiments.PrintFig5b(w, seed) },
		"fig6a": func() error {
			return sweep(w, experiments.Fig6a(), "Figure 6a — low precision sources (p=0.1), 25% true", reps)
		},
		"fig6b": func() error {
			return sweep(w, experiments.Fig6b(), "Figure 6b — high precision sources (p=0.75), 50% true", reps)
		},
		"fig6c": func() error {
			return sweep(w, experiments.Fig6c(), "Figure 6c — low recall sources (r=0.25), 25% true", reps)
		},
		"fig7": func() error { return experiments.PrintFig7(w, seed, reps) },
	}
	if exp == "all" {
		order := []string{"fig1b", "fig1c", "fig3", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig7"}
		for _, name := range order {
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r()
}

func sweep(w io.Writer, cfg experiments.SweepConfig, title string, reps int) error {
	if reps > 0 {
		cfg.Reps = reps
	}
	points, err := experiments.RunSweep(cfg)
	if err != nil {
		return err
	}
	experiments.PrintSweep(w, title, points)
	return nil
}

// exportCurves writes the Figure 4 PR/ROC series for every dataset as TSV.
func exportCurves(dir string, seed int64) error {
	for _, name := range []string{"reverb", "restaurant", "book"} {
		evals, err := experiments.Fig4(name, seed)
		if err != nil {
			return err
		}
		if err := experiments.WriteCurves(dir, name, evals); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: curve TSVs written to %s\n", dir)
	return nil
}
