//go:build linux

// Command bench is corrfuse's end-to-end benchmark: one process that builds
// the real fused and fuse binaries, drives them over TCP and exec with at
// most two connections, checks every output against an in-process oracle
// and reports the metrics named in BENCHMARK.json.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	    one run; the last line of standard output is the result object
//	go run ./bench [-runs K] [-seed N] [-seconds S] [-out FILE]
//	    every workload, K untraced runs and one traced run each; prints
//	    every metric by name with its unit and writes the run set to FILE
//	go run ./bench compare A.json B.json
//	    noise-aware comparison of two run sets
//
// README.md in this directory is the metric glossary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig selects and sizes one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	// oracleSkew makes the oracle wrong on purpose (smoke_test.go only).
	oracleSkew float64
}

// run is the state of one workload run.
type run struct {
	cfg runConfig
	env *env
	tr  *tracer // nil unless cfg.trace

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // first few failure messages

	setup   []setupItem
	metrics map[string]sample
}

type setupItem struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// attempt counts n operations whose outcome is about to be checked.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation: refused, timed out, or answered
// differently from the oracle.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// step runs one itemised part of set-up and records how long it took.
func (r *run) step(name string, fn func() error) error {
	begin := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("set-up %s: %w", name, err)
	}
	r.setup = append(r.setup, setupItem{name, time.Since(begin).Seconds()})
	return nil
}

func (r *run) setupSeconds() float64 {
	total := 0.0
	for _, it := range r.setup {
		total += it.Seconds
	}
	return total
}

func (r *run) set(name string, s sample) { r.metrics[name] = s }

// runResult is what one run reports; a run set file is a list of these.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Setup     []setupItem       `json:"setup"`
	Metrics   map[string]sample `json:"metrics"`
}

// execute performs one run. It returns an error when the run could not be
// measured at all (build failure, server did not start, generator guard);
// failed operations are reported in the result instead.
func execute(cfg runConfig) (*runResult, error) {
	e, err := newEnv(cfg.workload)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	r := &run{cfg: cfg, env: e, metrics: make(map[string]sample)}
	if cfg.trace {
		r.tr = newTracer()
	}
	switch cfg.workload {
	case "read-heavy":
		err = r.readHeavy()
	case "ingest-refuse":
		err = r.ingestRefuse()
	case "cold-boot":
		err = r.coldBoot()
	case "batch-fuse":
		err = r.batchFuse()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		if err := r.tr.flush(e.out, cfg.workload); err != nil {
			return nil, err
		}
	}
	defs := reported(cfg.trace)
	out := &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Setup: r.setup, Metrics: make(map[string]sample, len(defs)),
	}
	for _, d := range defs {
		// A layer that did no work on this workload reads 0.
		out.Metrics[d.Name] = r.metrics[d.Name]
	}
	return out, nil
}

// resultLine renders the driver-facing result object.
func resultLine(res *runResult) string {
	defs := reported(res.Trace)
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(raw)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// printRun prints one run's metrics by name with unit, quartiles and count.
func printRun(res *runResult) {
	defs := reported(res.Trace)
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d %s: attempted=%d failed=%d\n", res.Workload, res.Seed, mode, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	for _, it := range res.Setup {
		fmt.Printf("   set-up %-22s %9.3f s\n", it.Name, it.Seconds)
	}
	for _, d := range defs {
		s := res.Metrics[d.Name]
		if res.Trace && s.N == 0 {
			continue // layer not on this workload's path
		}
		fmt.Printf("   %-34s %14.4f %-6s median=%.4f q1=%.4f q3=%.4f n=%d\n", d.Name, s.Value, d.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
}

// runSet is a file of runs of one commit, the unit `bench compare` works on.
type runSet struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"goVersion"`
	NumCPU     int         `json:"nproc"`
	CPUModel   string      `json:"cpuModel"`
	Filesystem string      `json:"filesystem"`
	Runs       []runResult `json:"runs"`
}

func describeHost(root string) runSet {
	rs := runSet{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Filesystem: fsType(root), Commit: "unknown", CPUModel: "unknown"}
	if raw, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		rs.Commit = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				rs.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return rs
}

func mainErr() error {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			return errors.New("usage: bench compare A.json B.json")
		}
		return compareFiles(os.Args[2], os.Args[3], os.Stdout)
	}
	workload := flag.String("workload", "", "run one workload and end with the result line (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	runs := flag.Int("runs", 1, "untraced runs per workload when running all four")
	out := flag.String("out", "", "write the run set to this file when running all four")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	// Children die with the harness: on a signal, kill and reap them
	// before exiting (the normal path does the same through env.cleanup).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.Exit(130)
	}()

	cfg := runConfig{seed: *seed, seconds: *seconds, sc: fullScale}
	if *workload != "" {
		cfg.workload, cfg.trace = *workload, *trace == 1
		res, err := execute(cfg)
		if err != nil {
			return err
		}
		printRun(res)
		fmt.Println(resultLine(res))
		if !res.Correct {
			return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		}
		return nil
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	set := describeHost(root)
	failed := 0
	for _, w := range workloads {
		for i := 0; i <= *runs; i++ {
			cfg.workload, cfg.trace = w.Name, i == *runs
			res, err := execute(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printRun(res)
			failed += res.Failed
			set.Runs = append(set.Runs, *res)
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		killChildren()
		os.Exit(1)
	}
}
