//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"corrfuse"
	"corrfuse/internal/cluster"
	"corrfuse/internal/core"
	"corrfuse/internal/dataset"
	"corrfuse/internal/eval"
	"corrfuse/internal/quality"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// fuseMethods are the two CLI invocations batch-fuse alternates.
var fuseMethods = []struct {
	flag   string
	method corrfuse.Method
}{
	{"corr", corrfuse.PrecRecCorr},
	{"elastic", corrfuse.PrecRecCorrElastic},
}

// cliOptions mirrors cmd/fuse's translation of "-method M" with every other
// flag at its default.
func cliOptions(d *triple.Dataset, m corrfuse.Method) corrfuse.Options {
	opts := corrfuse.Options{Method: m, UnionK: 50, ElasticLevel: 3, Scope: corrfuse.ScopeGlobal{}}
	if nt, nf := d.CountLabels(); nt+nf > 0 {
		opts.Alpha = math.Min(0.95, math.Max(0.05, float64(nt)/float64(nt+nf)))
	}
	return opts
}

// fuseExec is one run of the fuse CLI.
type fuseExec struct {
	wallMS float64
	cpuUS  float64
	rssMB  float64
}

func (r *run) execFuse(in, method, out string) (fuseExec, error) {
	cmd := exec.Command(r.env.fuse, "-in", in, "-method", method, "-out", out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return fuseExec{}, err
	}
	// Peak memory is polled from /proc while the program runs: ru_maxrss
	// would be simpler, but a child starts life sharing the harness's
	// address space (vfork) and inherits its high-water mark, so it reports
	// the harness's size whenever that is the larger.
	stop := make(chan struct{})
	polled := make(chan float64, 1) // one send: the last reading
	go func() {
		var last float64
		for {
			if kb, err := procStatusKB(cmd.Process.Pid, "VmHWM"); err == nil {
				last = kb
			}
			select {
			case <-stop:
				polled <- last
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(begin)
	close(stop)
	rssKB := <-polled
	if err != nil {
		return fuseExec{}, fmt.Errorf("fuse -method %s: %v: %s", method, err, stderr.String())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return fuseExec{}, fmt.Errorf("fuse -method %s: no resource usage", method)
	}
	return fuseExec{
		wallMS: millis(wall),
		cpuUS:  float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3,
		rssMB:  rssKB / 1024,
	}, nil
}

// checkFuseOutput compares the CLI's output file with the library's result
// on the same data: the same triples, each with the library's probability
// and decision.
func checkFuseOutput(path string, d *triple.Dataset, res *corrfuse.Result, skew float64) error {
	out, err := store.Load(path)
	if err != nil {
		return err
	}
	if out.Len() != len(res.All) {
		return fmt.Errorf("CLI wrote %d triples, library scored %d", out.Len(), len(res.All))
	}
	accepted := make(map[corrfuse.TripleID]bool, len(res.Accepted))
	for _, s := range res.Accepted {
		accepted[s.ID] = true
	}
	for _, s := range res.All {
		e, ok := out.Get(s.Triple)
		if !ok || math.Abs(e.Probability-(s.Probability+skew)) > tolerance || e.Accepted != accepted[s.ID] {
			return fmt.Errorf("%v: CLI p=%v accepted=%v, library p=%v accepted=%v", s.Triple, e.Probability, e.Accepted, s.Probability, accepted[s.ID])
		}
	}
	return nil
}

func fileHash(path string) ([sha256.Size]byte, error) {
	raw, err := os.ReadFile(path)
	return sha256.Sum256(raw), err
}

// simulated are the three stand-ins for the paper's real-world datasets,
// with the settings internal/experiments evaluates them under.
var simulated = []struct {
	name  string
	build func() (*triple.Dataset, error)
	// BOOK has 333 narrow sources: subject scope, smoothing and clustered
	// correlation, as in the paper.
	book bool
}{
	{"reverb", func() (*triple.Dataset, error) { return dataset.SimulatedReVerb(1) }, false},
	{"restaurant", func() (*triple.Dataset, error) { return dataset.SimulatedRestaurant(1, 1) }, false},
	{"book", func() (*triple.Dataset, error) { return dataset.SimulatedBook(1) }, true},
}

// testF1 trains the four paper methods on the even-indexed gold triples of
// d and returns their F1 on the odd-indexed ones, keyed by method.
func testF1(d *triple.Dataset, book bool) (map[string]float64, error) {
	ids := dataset.ProvidedLabeled(d)
	var train, test []triple.TripleID
	for i, id := range ids {
		if i%2 == 0 {
			train = append(train, id)
		} else {
			test = append(test, id)
		}
	}
	nt, nf := d.CountLabels()
	qo := quality.Options{Alpha: math.Min(0.95, math.Max(0.05, float64(nt)/float64(nt+nf))), Train: train}
	var scope triple.Scope = triple.ScopeGlobal{}
	var clusters [][]triple.SourceID
	if book {
		scope = triple.NewScopeSubject(d)
		qo.Smoothing, qo.MinJointSupport = 0.5, 3
	}
	qo.Scope = scope
	est, err := quality.NewEstimator(d, qo)
	if err != nil {
		return nil, err
	}
	if book {
		clusters = cluster.Cluster(est, cluster.Options{MaxClusterSize: 6})
	}
	labels := dataset.GoldLabels(d, test)
	out := make(map[string]float64)
	for name, build := range map[string]func(core.Config) (core.Algorithm, error){
		"precrec":    func(c core.Config) (core.Algorithm, error) { return core.NewPrecRec(c) },
		"aggressive": func(c core.Config) (core.Algorithm, error) { return core.NewAggressive(c) },
		"elastic":    func(c core.Config) (core.Algorithm, error) { return core.NewElastic(c, 3) },
		"exact":      func(c core.Config) (core.Algorithm, error) { return core.NewExact(c) },
	} {
		alg, err := build(core.Config{Dataset: d, Params: est, Scope: scope, Clusters: clusters})
		if err != nil {
			return nil, err
		}
		out[name] = eval.Classify(alg.Score(test), labels, 0.5).F1()
	}
	return out, nil
}

// batchFuse is the batch-fuse workload; see README.md.
func (r *run) batchFuse() error {
	if err := r.step("go_build", r.env.buildBinaries); err != nil {
		return err
	}
	in := filepath.Join(r.env.runDir, "dataset.jsonl")
	if err := r.step("dataset_generate", func() error {
		d, err := dataset.Generate(fuseSpec(r.cfg.seed, r.cfg.sc.fuseTriples))
		if err != nil {
			return err
		}
		f, err := os.Create(in)
		if err != nil {
			return err
		}
		err = dataset.Write(f, d)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}); err != nil {
		return err
	}
	// The oracle: the library on the file the CLI will read.
	var d *triple.Dataset
	want := make([]*corrfuse.Result, len(fuseMethods))
	if err := r.step("oracle_fuse", func() error {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		if d, err = dataset.Read(f); err != nil {
			return err
		}
		for i, m := range fuseMethods {
			fz, err := corrfuse.New(d, cliOptions(d, m.method))
			if err != nil {
				return err
			}
			if want[i], err = fz.Fuse(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	f1s := make(map[string]map[string]float64)
	if err := r.step("reference_f1", func() error {
		for _, s := range simulated {
			sd, err := s.build()
			if err != nil {
				return err
			}
			if f1s[s.name], err = testF1(sd, s.book); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	total := time.Duration(r.cfg.seconds * float64(time.Second))
	begin := time.Now()
	runs := make([][]fuseExec, len(fuseMethods))
	var first [2][sha256.Size]byte
	for i := 0; time.Since(begin) < total || i < 2*r.cfg.sc.minFuse; i++ {
		k := i % len(fuseMethods)
		out := filepath.Join(r.env.runDir, "fused-"+fuseMethods[k].flag+".jsonl")
		r.attempt(1)
		fe, err := r.execFuse(in, fuseMethods[k].flag, out)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		// The first output of each method is compared with the library
		// triple by triple, every later one with the first byte by byte.
		if len(runs[k]) == 0 {
			if err := checkFuseOutput(out, d, want[k], r.cfg.oracleSkew); err != nil {
				r.fail("fuse -method %s: %v", fuseMethods[k].flag, err)
				continue
			}
			if first[k], err = fileHash(out); err != nil {
				return err
			}
		} else if h, err := fileHash(out); err != nil || h != first[k] {
			r.fail("fuse -method %s: output differs between two runs on one input (%v)", fuseMethods[k].flag, err)
			continue
		}
		runs[k] = append(runs[k], fe)
	}
	if len(runs[0]) == 0 || len(runs[1]) == 0 {
		return nil // every run of a method failed its check: the result says so
	}

	corr := lowerQuartile(column(runs[0], func(fe fuseExec) float64 { return fe.wallMS }))
	exactF1 := (f1s["reverb"]["exact"] + f1s["restaurant"]["exact"] + f1s["book"]["exact"]) / 3
	r.set("setup_s", single(r.setupSeconds()))
	r.set("op_ms", corr)
	r.set("alt_op_ms", lowerQuartile(column(runs[1], func(fe fuseExec) float64 { return fe.wallMS })))
	r.set("cpu_us_per_op", lowerQuartile(column(runs[0], func(fe fuseExec) float64 { return fe.cpuUS })))
	rss := summarize(column(runs[0], func(fe fuseExec) float64 { return fe.rssMB }))
	r.set("peak_rss_mb", rss)
	r.set("answer_f1", single(exactF1))
	if r.tr == nil {
		return nil
	}
	r.set("process.fuse_peak_rss_mb", rss)
	for _, s := range simulated {
		r.set("core.f1_"+s.name, single(f1s[s.name]["exact"]))
	}
	return r.fuseLayers(in, corr.Value)
}

// fuseLayers replays `fuse -method corr` in process, layer by layer.
func (r *run) fuseLayers(in string, cliMS float64) error {
	var (
		d   *triple.Dataset
		est *quality.Estimator
		err error
	)
	ms := r.tr.timedMS
	read := ms("dataset.read", func() {
		var f *os.File
		if f, err = os.Open(in); err != nil {
			return
		}
		defer f.Close()
		d, err = dataset.Read(f)
	})
	if err != nil {
		return err
	}
	r.set("dataset.read_ms", single(read))
	opts := cliOptions(d, corrfuse.PrecRecCorr)
	r.set("quality.estimator_ms", single(ms("quality.estimator", func() {
		est, err = quality.NewEstimator(d, quality.Options{Alpha: opts.Alpha, Scope: opts.Scope})
	})))
	if err != nil {
		return err
	}
	var clusters [][]triple.SourceID
	r.set("cluster.cluster_ms", single(ms("cluster.cluster", func() { clusters = cluster.Cluster(est, cluster.Options{}) })))
	width := 0
	for _, c := range clusters {
		width = max(width, len(c))
	}
	r.set("cluster.clusters", single(float64(len(clusters))))
	r.set("cluster.max_width", single(float64(width)))

	ids := make([]triple.TripleID, 0, d.NumTriples())
	patterns := make(map[uint64]struct{})
	for i := 0; i < d.NumTriples(); i++ {
		id := triple.TripleID(i)
		if provs := d.Providers(id); len(provs) > 0 {
			ids = append(ids, id)
			var p uint64
			for _, s := range provs {
				p |= 1 << uint(s)
			}
			patterns[p] = struct{}{}
		}
	}
	r.set("core.patterns_distinct", single(float64(len(patterns))))
	// The CLI's configuration: one cluster holding all 12 sources. Each
	// algorithm gets an estimator of its own, because the estimator
	// memoises joint statistics and a shared one would hand the later
	// algorithms the earlier ones' work.
	for _, a := range []struct {
		name  string
		build func(core.Config) (core.Algorithm, error)
	}{
		{"core.exact_score", func(c core.Config) (core.Algorithm, error) { return core.NewExact(c) }},
		{"core.elastic_score", func(c core.Config) (core.Algorithm, error) { return core.NewElastic(c, 3) }},
		{"core.aggressive_score", func(c core.Config) (core.Algorithm, error) { return core.NewAggressive(c) }},
		{"core.precrec_score", func(c core.Config) (core.Algorithm, error) { return core.NewPrecRec(c) }},
	} {
		own, err := quality.NewEstimator(d, quality.Options{Alpha: opts.Alpha, Scope: opts.Scope})
		if err != nil {
			return err
		}
		r.set(a.name+"_ms", single(ms(a.name, func() {
			var alg core.Algorithm
			if alg, err = a.build(core.Config{Dataset: d, Params: own, Scope: opts.Scope}); err == nil {
				alg.Score(ids)
			}
		})))
		if err != nil {
			return err
		}
	}

	var fz *corrfuse.Fuser
	total := ms("corrfuse.new_fuse", func() {
		if fz, err = corrfuse.New(d, opts); err == nil {
			_, err = fz.Fuse()
		}
	})
	if err != nil {
		return err
	}
	// Scores are frozen now: a second Fuse only ranks.
	r.set("corrfuse.fuse_rank_ms", single(ms("corrfuse.fuse_rank", func() { _, err = fz.Fuse() })))
	if err != nil {
		return err
	}
	r.set("process.fuse_exec_overhead_ms", single(cliMS-read-total))
	return nil
}
