package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Startup (cold-load) benchmarks at the acceptance-criterion scale: a
// 52k-triple store loaded from the JSONL text format versus the CFSN
// binary snapshot. CI records both in BENCH_startup.json and fails the
// bench job unless the binary path is >= 4x faster.

// startupBench holds the files both benchmarks load, built once: the
// generator and the two saves dominate a single load many times over.
var startupBench struct {
	once       sync.Once
	dir        string
	entries    int
	jsonlBytes int64
	binBytes   int64
	jsonlPath  string
	binPath    string
	tbFatal    error
}

// startupStore synthesizes the 52k-triple store the cold-start criterion
// names: 13000 subjects x 4 predicates over 144 sources (the
// storeBenchDataset shape), with fused probabilities on every entry —
// exactly what a persist() writes after a rebuild.
func startupStore() *Store {
	const groups, subjects, preds = 48, 13000, 4
	s := New()
	for i := 0; i < subjects; i++ {
		sub := fmt.Sprintf("entity-%05d", i)
		for p := 0; p < preds; p++ {
			t := mk(sub, fmt.Sprintf("p%d", p), "v")
			g := (i + p) % groups
			e := Entry{Triple: t, Sources: []string{
				fmt.Sprintf("copierA-%d", g), fmt.Sprintf("copierB-%d", g),
			}}
			if n := i*preds + p; n%3 == 0 {
				e.Sources = append(e.Sources, fmt.Sprintf("indep-%d", g))
			}
			if n := i*preds + p; n%10 < 4 {
				if n%5 == 4 {
					e.Label = "false"
				} else {
					e.Label = "true"
				}
			}
			s.Put(e)
			s.SetFusion(t, float64(i%1000)/1000+0.0005, (i+p)%3 != 0)
		}
	}
	return s
}

// startupFiles writes the store once in both formats and returns the paths.
func startupFiles(b *testing.B) (jsonlPath, binPath string) {
	b.Helper()
	startupBench.once.Do(func() {
		dir, err := os.MkdirTemp("", "startup-bench-*")
		if err != nil {
			startupBench.tbFatal = err
			return
		}
		startupBench.dir = dir
		st := startupStore()
		startupBench.entries = st.Len()
		startupBench.jsonlPath = filepath.Join(dir, "store.jsonl")
		startupBench.binPath = BinaryPath(startupBench.jsonlPath)
		if err := st.Save(startupBench.jsonlPath); err != nil {
			startupBench.tbFatal = err
			return
		}
		if err := st.SaveBinary(startupBench.binPath); err != nil {
			startupBench.tbFatal = err
			return
		}
		if fi, err := os.Stat(startupBench.jsonlPath); err == nil {
			startupBench.jsonlBytes = fi.Size()
		}
		if fi, err := os.Stat(startupBench.binPath); err == nil {
			startupBench.binBytes = fi.Size()
		}
	})
	if startupBench.tbFatal != nil {
		b.Fatal(startupBench.tbFatal)
	}
	return startupBench.jsonlPath, startupBench.binPath
}

// BenchmarkStartupJSONL is the pre-snapshot cold start: parse the full
// JSONL store before the first byte can be served.
func BenchmarkStartupJSONL(b *testing.B) {
	jsonlPath, _ := startupFiles(b)
	b.SetBytes(startupBench.jsonlBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Load(jsonlPath)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != startupBench.entries {
			b.Fatalf("loaded %d entries, want %d", st.Len(), startupBench.entries)
		}
	}
	b.ReportMetric(float64(startupBench.entries), "entries")
}

// BenchmarkStartupBinary is the snapshot cold start: mmap + header/CRC
// validation + index wiring straight off the mapping.
func BenchmarkStartupBinary(b *testing.B) {
	_, binPath := startupFiles(b)
	b.SetBytes(startupBench.binBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err := LoadBinary(binPath)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != startupBench.entries {
			b.Fatalf("loaded %d entries, want %d", st.Len(), startupBench.entries)
		}
	}
	b.ReportMetric(float64(startupBench.entries), "entries")
}

// TestBinaryColdStartSpeedup is the local (non-CI) form of the cold-start
// acceptance criterion on the 52k-triple store. What it protects is the
// binary load staying mmap + wiring with no per-entry work, so it bounds
// that directly — allocations, which are deterministic (~180 for 52k
// entries) — and relative to the JSONL parse on the same box (best of
// interleaved loads). The ratio measures 4.6-8.9x (median 6x, binary
// ~11 ms vs JSONL 60-100 ms through the strict line codec); 4x leaves the
// binary load about 1.5x headroom, which is what run-to-run noise on a
// 2-core box needs. Skipped in -short runs; CI enforces the same ratio
// from BENCH_startup.json.
func TestBinaryColdStartSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-start ratio measurement skipped in -short mode")
	}
	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "store.jsonl")
	st := startupStore()
	if err := st.Save(jsonlPath); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveBinary(BinaryPath(jsonlPath)); err != nil {
		t.Fatal(err)
	}
	timed := func(load func() error) time.Duration {
		start := time.Now()
		if err := load(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	loadJSONL := func() error { _, err := Load(jsonlPath); return err }
	loadBinary := func() error { _, _, err := LoadBinary(BinaryPath(jsonlPath)); return err }
	jsonl, bin := time.Duration(1<<62-1), time.Duration(1<<62-1)
	// Noise only ever adds time, so the running minima converge on the true
	// costs: keep sampling (up to 4 rounds) while a busy box blurs the ratio.
	for round := 0; round < 4 && (round == 0 || bin*4 > jsonl); round++ {
		for i := 0; i < 5; i++ {
			jsonl = min(jsonl, timed(loadJSONL))
			bin = min(bin, timed(loadBinary))
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := loadBinary(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold start on %d entries: jsonl %v, binary %v (%.1fx), binary load %.0f allocs",
		st.Len(), jsonl, bin, float64(jsonl)/float64(bin), allocs)
	if bin*4 > jsonl {
		t.Errorf("binary cold start %v is not >= 4x faster than JSONL %v", bin, jsonl)
	}
	if allocs > float64(st.Len())/100 {
		t.Errorf("binary load made %.0f allocations for %d entries; it must not allocate per entry", allocs, st.Len())
	}
}
