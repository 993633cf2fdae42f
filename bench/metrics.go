//go:build linux

package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one row of the metric catalogue. BENCHMARK.json at the repo
// root lists the same names, units, directions and bounds; smoke_test.go
// fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a later change may lose; 0 for per-layer metrics
	// AbsBound, when set, is the bound in the metric's own unit that `bench
	// compare` applies in place of Bound: an F1 is a share already, and the
	// issue bounds it by 0.005 whatever its level.
	AbsBound float64
}

// endToEnd is what a user of the system sees, measured from outside the
// process with tracing off. Every workload reports every metric: the name
// says what kind of number it is, the workload says of which operation (see
// README.md for the workload × metric table).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alt_op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "answer_f1", Unit: "ratio", Better: "higher", Bound: 0.02, AbsBound: 0.005},
}

// perLayer is measured in the traced run: span self times of the harness's
// own calls into each layer, allocation counts, scraped server histograms
// and /proc counters. A metric whose layer does no work on the run's
// workload reads 0 — the prediction "no change" made checkable.
var perLayer = []metricDef{
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.null_rtt_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "net.score_overhead_us", Unit: "us", Better: "lower"},

	{Name: "serve.score_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.score_handler_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.score_handler_bytes", Unit: "count", Better: "lower"},
	{Name: "serve.score_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.subject_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.subject_handler_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.stage_decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage_score_us", Unit: "us", Better: "lower"},
	{Name: "serve.observe_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.observe_handler_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.stage_ingest_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage_wal_commit_us", Unit: "us", Better: "lower"},
	{Name: "serve.boot_stage_capture_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.boot_stage_train_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.boot_stage_shard_build_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.boot_stage_freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.boot_stage_writeback_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.boot_stage_index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.boot_stage_online_seed_ms", Unit: "ms", Better: "lower"},

	{Name: "codec.decode_score_us", Unit: "us", Better: "lower"},
	{Name: "codec.decode_score_allocs", Unit: "count", Better: "lower"},
	{Name: "codec.encode_score_us", Unit: "us", Better: "lower"},
	{Name: "codec.encode_score_allocs", Unit: "count", Better: "lower"},
	{Name: "codec.encode_entries_us", Unit: "us", Better: "lower"},
	{Name: "codec.decode_observe_us", Unit: "us", Better: "lower"},
	{Name: "codec.decode_observe_allocs", Unit: "count", Better: "lower"},
	{Name: "codec.encode_observe_us", Unit: "us", Better: "lower"},

	{Name: "triple.resolve_us", Unit: "us", Better: "lower"},

	{Name: "index.lookup_us", Unit: "us", Better: "lower"},
	{Name: "index.subject_us", Unit: "us", Better: "lower"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower"},

	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "store.writeback_ms", Unit: "ms", Better: "lower"},
	{Name: "store.save_jsonl_ms", Unit: "ms", Better: "lower"},
	{Name: "store.save_binary_ms", Unit: "ms", Better: "lower"},
	{Name: "store.load_binary_ms", Unit: "ms", Better: "lower"},
	{Name: "store.apply_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "store.load_jsonl_ms", Unit: "ms", Better: "lower"},
	{Name: "store.jsonl_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "store.cfsn_bytes_per_triple", Unit: "B", Better: "lower"},

	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.commit_wait_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_batch", Unit: "ratio", Better: "lower"},
	{Name: "wal.group_commit_size", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_obs", Unit: "B", Better: "lower"},
	{Name: "wal.truncate_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_records", Unit: "count", Better: "lower"},

	{Name: "corrfuse.online_observe_us", Unit: "us", Better: "lower"},
	{Name: "corrfuse.rebuild_partial_ms", Unit: "ms", Better: "lower"},
	{Name: "corrfuse.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "corrfuse.online_seed_ms", Unit: "ms", Better: "lower"},
	{Name: "corrfuse.shards_reused_ratio", Unit: "ratio", Better: "higher"},
	{Name: "corrfuse.train_ms", Unit: "ms", Better: "lower"},
	{Name: "corrfuse.fuse_rank_ms", Unit: "ms", Better: "lower"},

	{Name: "shard.route_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.build_ms", Unit: "ms", Better: "lower"},

	{Name: "quality.estimator_ms", Unit: "ms", Better: "lower"},

	{Name: "cluster.cluster_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.clusters", Unit: "count", Better: "lower"},
	{Name: "cluster.max_width", Unit: "count", Better: "lower"},

	{Name: "core.exact_score_ms", Unit: "ms", Better: "lower"},
	{Name: "core.elastic_score_ms", Unit: "ms", Better: "lower"},
	{Name: "core.aggressive_score_ms", Unit: "ms", Better: "lower"},
	{Name: "core.precrec_score_ms", Unit: "ms", Better: "lower"},
	{Name: "core.patterns_distinct", Unit: "count", Better: "lower"},
	{Name: "core.f1_reverb", Unit: "ratio", Better: "higher"},
	{Name: "core.f1_restaurant", Unit: "ratio", Better: "higher"},
	{Name: "core.f1_book", Unit: "ratio", Better: "higher"},

	{Name: "dataset.read_ms", Unit: "ms", Better: "lower"},

	{Name: "process.fuse_exec_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "process.boot_other_ms", Unit: "ms", Better: "lower"},
	{Name: "process.ingest_cpu_us_per_obs", Unit: "us", Better: "lower"},
	{Name: "process.ingest_write_bytes_per_obs", Unit: "B", Better: "lower"},
	{Name: "process.read_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "process.fuse_peak_rss_mb", Unit: "MiB", Better: "lower"},

	// The three end-to-end metrics of the issue that did not repeat within
	// a bound on the reference box, kept under the issue's names.
	{Name: "read_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "score_p99_us", Unit: "us", Better: "lower"},
	{Name: "ingest_obs_per_s", Unit: "1/s", Better: "higher"},

	{Name: "client.observe_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.probe_score_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.subject_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.triple_p50_us", Unit: "us", Better: "lower"},
}

// reported returns the metrics a run reports: the per-layer ones when it
// was traced, the end-to-end ones when it was not.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"read-heavy", "score/subject/triple reads over 2 sockets, closed loop then fixed rate: net, serve, codec and index do the work; fusion, store and WAL none"},
	{"ingest-refuse", "durable 16-claim observes with read-your-writes probes and scripted refuses: codec decode, store, online scorer, WAL fsync, partial rebuild and persist do the work"},
	{"cold-boot", "repeated exec of fused on a crashed state directory until /healthz is 200: load, WAL replay, train, freeze, index build and online seed dominate"},
	{"batch-fuse", "the paper's workload through the fuse CLI on a 50k-triple, 12-source correlated dataset: quality, cluster and the 2^12 inclusion-exclusion of core do the work"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one reported value with the median, quartiles and count of the
// observations (windows, boots, refuses, CLI runs) it was taken from.
type sample struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reports the median of xs with its quartiles and count.
func summarize(xs []float64) sample {
	if len(xs) == 0 {
		return sample{}
	}
	q1, med, q3 := quartiles(xs)
	return sample{Value: med, Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// lowerQuartile reports the first quartile of xs. The gated times and CPU
// costs are reported this way. What disturbs a run on a shared host — a
// neighbour, a descheduled vCPU, a busy sibling thread, a slow spell of the
// virtual disk — only ever adds time, in spells of a few seconds, so the
// slower half of a run's windows says more about the host than about the
// program (README.md has the measured spreads of both statistics). Unlike
// the minimum it needs a quarter of the samples to agree, so one lucky
// window cannot hide a change that slows the others.
func lowerQuartile(xs []float64) sample {
	s := summarize(xs)
	s.Value = s.Q1
	return s
}

// upperQuartile reports the third quartile of xs.
func upperQuartile(xs []float64) sample {
	s := summarize(xs)
	s.Value = s.Q3
	return s
}

// tail reports the p-th percentile of xs beside the median and quartiles.
func tail(xs []float64, p float64) sample {
	s := summarize(xs)
	s.Value = percentile(xs, p)
	return s
}

// millis and micros convert a duration to the units metrics are reported in.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// column extracts one number per element.
func column[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// single wraps a value measured once per run.
func single(v float64) sample { return sample{Value: v, Median: v, Q1: v, Q3: v, N: 1} }

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (Python's statistics.quantiles(xs, n=4)), which is
// what the acceptance rule for this benchmark is stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by nearest
// rank; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
