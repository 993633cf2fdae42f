//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// verdict classifies one workload × metric cell of a comparison. The limit
// is d.AbsBound when the metric has one, else d.Bound × the side's median.
//
//	unresolved      a side's spread (Q3−Q1) is wider than the limit and the
//	                two run sets overlap: the data cannot tell a change of
//	                bound size from noise, whatever the medians say
//	better / worse  otherwise, when the medians differ by more than the limit
//	same            otherwise
func verdict(a, b []float64, d metricDef) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	limitA, limitB := d.Bound*math.Abs(ma), d.Bound*math.Abs(mb)
	if d.AbsBound > 0 {
		limitA, limitB = d.AbsBound, d.AbsBound
	}
	gain := mb - ma // positive: b is better
	if d.Better == "lower" {
		gain = -gain
	}
	overlap := slices.Min(a) <= slices.Max(b) && slices.Min(b) <= slices.Max(a)
	noisy := qa3-qa1 > limitA || qb3-qb1 > limitB
	switch {
	case noisy && overlap:
		return "unresolved"
	case gain < -limitA:
		return "worse"
	case gain > limitA:
		return "better"
	default:
		return "same"
	}
}

func loadRunSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// values collects a metric's per-run values for one workload (untraced runs
// for end-to-end metrics, traced ones for per-layer metrics).
func (rs *runSet) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && r.Trace == traced {
			if s, ok := r.Metrics[metric]; ok {
				out = append(out, s.Value)
			}
		}
	}
	return out
}

// compareFiles prints, per workload × end-to-end metric, each side's median
// and quartiles over its runs, the metric's bound and the verdict; then the
// per-layer metrics that moved, for locating a change. It returns an error
// when any end-to-end cell is worse or unresolved.
func compareFiles(pathA, pathB string, out io.Writer) error {
	a, err := loadRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "A: %s (%s, %d cpu, %s)\nB: %s (%s, %d cpu, %s)\n\n", pathA, a.Commit, a.NumCPU, a.GoVersion, pathB, b.Commit, b.NumCPU, b.GoVersion)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tbound\tverdict")
	bad := 0
	row := func(w string, d metricDef, traced bool) {
		va, vb := a.values(w, d.Name, traced), b.values(w, d.Name, traced)
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		qa1, ma, qa3 := quartiles(va)
		qb1, mb, qb3 := quartiles(vb)
		if traced && ma == 0 && mb == 0 {
			return // layer not on this workload's path
		}
		change, v := "n/a", "info"
		if ma != 0 {
			change = fmt.Sprintf("%+.1f%%", (mb-ma)/ma*100)
		}
		bound := "-"
		if !traced {
			v = verdict(va, vb, d)
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			if d.AbsBound > 0 {
				bound = fmt.Sprintf("%g %s", d.AbsBound, d.Unit)
			}
			if v == "worse" || v == "unresolved" {
				bad++
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%s\t%s\t%s\n",
			w, d.Name, d.Unit, ma, qa1, qa3, len(va), mb, qb1, qb3, len(vb), change, bound, v)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			row(w.Name, d, false)
		}
	}
	fmt.Fprintln(tw)
	for _, w := range workloads {
		for _, d := range perLayer {
			row(w.Name, d, true)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end cells are worse or unresolved", bad)
	}
	return nil
}
