package serve

import (
	"context"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"corrfuse/internal/wal"
)

// benchWriters is the concurrency the ingest benchmarks aim for: the
// acceptance bar is BenchmarkIngestWALGroupCommit sustaining at least half
// of BenchmarkIngestNoWAL's throughput at 8 concurrent writers with
// -wal-sync always — the group commit amortizing fsyncs across writers is
// what makes that possible.
const benchWriters = 8

// benchmarkIngest measures the full durable ingest path (store write, WAL
// append, group commit, live-scorer update) under concurrent writers.
func benchmarkIngest(b *testing.B, cfg Config) {
	srv, err := New(seedStoreData(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()

	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((benchWriters + procs - 1) / procs)
	var id atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			o := Observation{
				Source:    "good1",
				Subject:   "bench-" + strconv.FormatInt(id.Add(1), 10),
				Predicate: "p",
				Object:    "v",
			}
			_, seq, err := srv.ingest(o)
			if err != nil {
				b.Error(err)
				return
			}
			if srv.wal != nil {
				if err := srv.wal.Commit(seq); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "obs/s")
}

// BenchmarkIngestNoWAL is the durability-free baseline: an ack only
// promises the claim reached memory.
func BenchmarkIngestNoWAL(b *testing.B) {
	benchmarkIngest(b, corrConfig())
}

// BenchmarkIngestWALInterval appends to the WAL but fsyncs on a timer: the
// write syscall is on the ingest path, the fsync is not.
func BenchmarkIngestWALInterval(b *testing.B) {
	dir := b.TempDir()
	cfg := corrConfig()
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.WALSync = wal.SyncInterval
	cfg.PersistPath = filepath.Join(dir, "store.jsonl")
	benchmarkIngest(b, cfg)
}

// BenchmarkIngestWALGroupCommit is the full contract: every ack is fsynced,
// with concurrent writers coalescing into shared group commits.
func BenchmarkIngestWALGroupCommit(b *testing.B) {
	dir := b.TempDir()
	cfg := corrConfig()
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.WALSync = wal.SyncAlways
	cfg.PersistPath = filepath.Join(dir, "store.jsonl")
	benchmarkIngest(b, cfg)
}
