package wal

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func rec(i int) Record {
	return Record{
		Source:    fmt.Sprintf("src%d", i%3),
		Subject:   fmt.Sprintf("s%d", i),
		Predicate: "p",
		Object:    "v",
	}
}

func mustOpen(t *testing.T, dir string, opts Options) (*WAL, []Record) {
	t.Helper()
	w, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

func appendCommit(t *testing.T, w *WAL, r Record) uint64 {
	t.Helper()
	seq, err := w.Append(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestAppendReplay: records round-trip through a close/reopen with
// contiguous sequence numbers, and the reopened log continues the sequence.
func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, recovered := mustOpen(t, dir, Options{})
	if len(recovered) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recovered))
	}
	const n = 25
	for i := 0; i < n; i++ {
		if seq := appendCommit(t, w, rec(i)); seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs := mustOpen(t, dir, Options{})
	defer w2.Close()
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Subject != fmt.Sprintf("s%d", i) || r.Source != fmt.Sprintf("src%d", i%3) {
			t.Fatalf("record %d corrupted: %+v", i, r)
		}
	}
	if seq := appendCommit(t, w2, rec(n)); seq != n+1 {
		t.Fatalf("sequence did not survive reopen: got %d, want %d", seq, n+1)
	}
	if st := w2.Stats(); st.Recovered != n {
		t.Fatalf("Stats.Recovered = %d, want %d", st.Recovered, n)
	}
}

// lastSegment returns the path of the highest-named segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.jsonl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(paths)
	return paths[len(paths)-1]
}

// TestTornTailTrimmed: a partial final record — a crash mid-append — is
// trimmed on Open, replay keeps everything before it, and appending after
// recovery yields a clean log.
func TestTornTailTrimmed(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		appendCommit(t, w, rec(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 7 bytes (newline included).
	if err := os.WriteFile(seg, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs := mustOpen(t, dir, Options{})
	if len(recs) != 4 {
		t.Fatalf("recovered %d records after tear, want 4", len(recs))
	}
	appendCommit(t, w2, rec(9))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	w3, recs := mustOpen(t, dir, Options{})
	defer w3.Close()
	if len(recs) != 5 {
		t.Fatalf("recovered %d records after post-tear append, want 5", len(recs))
	}
	// The re-used sequence number 5 now names the post-recovery record.
	if last := recs[4]; last.Seq != 5 || last.Subject != "s9" {
		t.Fatalf("post-tear append corrupted: %+v", last)
	}
}

// TestNewlinelessTailTorn: a final record whose bytes all made it but whose
// newline did not is torn — keeping it would glue the next append onto the
// same line and corrupt both.
func TestNewlinelessTailTorn(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		appendCommit(t, w, rec(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	raw, _ := os.ReadFile(seg)
	os.WriteFile(seg, raw[:len(raw)-1], 0o644) // strip only the final newline

	w2, recs := mustOpen(t, dir, Options{})
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (newline-less tail must be torn)", len(recs))
	}
	appendCommit(t, w2, rec(7))
	w2.Close()
	w3, recs := mustOpen(t, dir, Options{})
	defer w3.Close()
	if len(recs) != 3 {
		t.Fatalf("append after trim left %d replayable records, want 3", len(recs))
	}
}

// TestCorruptRecordDetected: a bit flip in a record's payload fails the CRC;
// in the last segment replay stops before it, anywhere else Open errors.
func TestCorruptRecordDetected(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		appendCommit(t, w, rec(i))
	}
	w.Close()
	seg := lastSegment(t, dir)
	raw, _ := os.ReadFile(seg)
	// Flip a byte inside the second record's payload.
	lines := strings.SplitAfter(string(raw), "\n")
	second := []byte(lines[1])
	second[len(second)/2] ^= 0x40
	lines[1] = string(second)
	os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644)

	_, recs := mustOpen(t, dir, Options{})
	if len(recs) != 1 {
		t.Fatalf("replay past a corrupt record: got %d records, want 1", len(recs))
	}
}

// TestCorruptMiddleSegmentFails: corruption in a non-final segment is not a
// torn tail — it must fail Open loudly instead of replaying a silent gap.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentBytes: 1}) // rotate every append
	for i := 0; i < 4; i++ {
		appendCommit(t, w, rec(i))
	}
	w.Close()
	paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.jsonl"))
	sort.Strings(paths)
	if len(paths) < 3 {
		t.Fatalf("expected several segments, got %v", paths)
	}
	raw, _ := os.ReadFile(paths[1])
	raw[len(raw)/2] ^= 0x40
	os.WriteFile(paths[1], raw, 0o644)

	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt middle segment")
	}
}

// TestRotationAndTruncate: a tiny segment threshold forces rotation on
// every append; TruncateThrough removes exactly the covered segments and a
// reopen replays only the suffix.
func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentBytes: 1})
	const n = 10
	for i := 0; i < n; i++ {
		appendCommit(t, w, rec(i))
	}
	if st := w.Stats(); st.Segments < n {
		t.Fatalf("expected ~%d segments, got %d", n, st.Segments)
	}

	if err := w.TruncateThrough(6); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpenSecond(t, dir)
	if len(recs) != n-6 {
		t.Fatalf("after TruncateThrough(6): %d records on disk, want %d", len(recs), n-6)
	}
	if recs[0].Seq != 7 {
		t.Fatalf("suffix starts at seq %d, want 7", recs[0].Seq)
	}

	// Truncating through the head (snapshot taken at the log head) empties
	// the log: the open segment rotates so it can be deleted too.
	if err := w.TruncateThrough(n); err != nil {
		t.Fatal(err)
	}
	_, recs = mustOpenSecond(t, dir)
	if len(recs) != 0 {
		t.Fatalf("after TruncateThrough(head): %d records on disk, want 0", len(recs))
	}

	// The log still appends correctly after being emptied.
	seq := appendCommit(t, w, rec(99))
	if seq != n+1 {
		t.Fatalf("append after truncate got seq %d, want %d", seq, n+1)
	}
	w.Close()
	_, recs = mustOpenSecond(t, dir)
	if len(recs) != 1 || recs[0].Seq != n+1 {
		t.Fatalf("post-truncate append not replayed: %+v", recs)
	}
}

// mustOpenSecond opens the directory read-only-style (a second WAL over the
// same files) just to observe what a fresh process would replay, and closes
// it again. The primary writer must not be appending concurrently.
func mustOpenSecond(t *testing.T, dir string) (*WAL, []Record) {
	t.Helper()
	w, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w, recs
}

// TestGroupCommit: with a deliberately slow fsync, concurrent writers must
// coalesce into far fewer fsyncs than appends — and every committed record
// must actually be durable and replayable.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	var fsyncs atomic.Int64
	w.syncFile = func(f *os.File) error {
		fsyncs.Add(1)
		time.Sleep(2 * time.Millisecond) // a disk-like fsync latency
		return f.Sync()
	}

	const writers, per = 8, 10
	var wg sync.WaitGroup
	var maxSeq atomic.Uint64
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := w.Append(rec(g*per + i))
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Commit(seq); err != nil {
					t.Error(err)
					return
				}
				for {
					cur := maxSeq.Load()
					if seq <= cur || maxSeq.CompareAndSwap(cur, seq) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(writers * per)
	if got := fsyncs.Load(); got >= total {
		t.Errorf("no group commit: %d fsyncs for %d committed appends", got, total)
	}
	st := w.Stats()
	if st.DurableSeq < uint64(total) {
		t.Errorf("DurableSeq = %d after %d commits", st.DurableSeq, total)
	}
	if st.LastGroupCommit == 0 {
		t.Error("LastGroupCommit never recorded")
	}
	w.Close()

	_, recs := mustOpenSecond(t, dir)
	if len(recs) != int(total) {
		t.Fatalf("replayed %d records, want %d", len(recs), total)
	}
}

// TestClosedOperationsFail: appends and commits after Close report
// ErrClosed instead of pretending to be durable.
func TestClosedOperationsFail(t *testing.T) {
	w, _ := mustOpen(t, t.TempDir(), Options{})
	seq := appendCommit(t, w, rec(0))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(rec(1)); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := w.Commit(seq + 1); err != ErrClosed {
		t.Fatalf("Commit past head after Close: %v, want ErrClosed", err)
	}
	if err := w.TruncateThrough(seq); err != ErrClosed {
		t.Fatalf("TruncateThrough after Close: %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestIntervalAndOffPolicies: commits return without waiting for fsync, the
// data still reaches the OS (visible after Close → reopen), and the ticker
// advances the durability watermark under SyncInterval.
func TestIntervalAndOffPolicies(t *testing.T) {
	for _, policy := range []string{SyncInterval, SyncOff} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			w, _ := mustOpen(t, dir, Options{Sync: policy, SyncInterval: 5 * time.Millisecond})
			const n = 10
			for i := 0; i < n; i++ {
				appendCommit(t, w, rec(i))
			}
			if policy == SyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for w.Stats().DurableSeq < n {
					if time.Now().After(deadline) {
						t.Fatal("interval fsync never covered the appends")
					}
					time.Sleep(time.Millisecond)
				}
			}
			w.Close()
			_, recs := mustOpenSecond(t, dir)
			if len(recs) != n {
				t.Fatalf("replayed %d records, want %d", len(recs), n)
			}
		})
	}
}

// TestBadSyncPolicyRejected: Open validates the policy up front.
func TestBadSyncPolicyRejected(t *testing.T) {
	if _, _, err := Open(t.TempDir(), Options{Sync: "sometimes"}); err == nil {
		t.Fatal("Open accepted an unknown sync policy")
	}
}

// TestStatsBytes: Stats tracks bytes across rotations and truncations.
func TestStatsBytes(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		appendCommit(t, w, rec(i))
	}
	before := w.Stats()
	if before.Bytes == 0 || before.Segments < 2 {
		t.Fatalf("implausible stats before truncate: %+v", before)
	}
	if err := w.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.Bytes >= before.Bytes || after.Segments >= before.Segments {
		t.Fatalf("truncate did not shrink the log: %+v -> %+v", before, after)
	}
	w.Close()
}

// TestSeqSurvivesTruncateAndReopen: the regression test for the empty-log
// reboot — after a persist truncates the whole log and the process
// restarts, the sequence must continue from the segment name, not reset
// (a reset would reuse sequence numbers and wedge a later recovery on a
// bogus gap).
func TestSeqSurvivesTruncateAndReopen(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	const n = 5
	for i := 0; i < n; i++ {
		appendCommit(t, w, rec(i))
	}
	if err := w.TruncateThrough(n); err != nil { // snapshot covered everything
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs := mustOpen(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("empty log replayed %d records", len(recs))
	}
	if seq := appendCommit(t, w2, rec(n)); seq != n+1 {
		t.Fatalf("sequence reset across truncate+reopen: got %d, want %d", seq, n+1)
	}
	// A later persist + crash + reboot must still recover cleanly.
	if err := w2.TruncateThrough(n + 1); err != nil {
		t.Fatal(err)
	}
	appendCommit(t, w2, rec(n+1))
	w2.Close()
	w3, recs := mustOpen(t, dir, Options{})
	defer w3.Close()
	if len(recs) != 1 || recs[0].Seq != n+2 {
		t.Fatalf("recovery after truncate cycles: %+v, want single record seq %d", recs, n+2)
	}
}

// TestRebase: a rebase deletes every segment (open one included), pins the
// sequence so the next append lands at exactly first, and the surviving
// on-disk state replays cleanly across a reopen — the follower re-bootstrap
// primitive.
func TestRebase(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentBytes: 1}) // one record per segment
	for i := 0; i < 5; i++ {
		appendCommit(t, w, rec(i))
	}

	const first = 42
	if err := w.Rebase(first); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != filepath.Join(dir, fmt.Sprintf("wal-%016d.jsonl", first)) {
		t.Fatalf("rebase left segments %v, want only the pin for seq %d", paths, first)
	}
	if got := w.Seq(); got != first-1 {
		t.Fatalf("Seq() = %d after rebase, want %d", got, first-1)
	}
	if st := w.Stats(); st.DurableSeq != first-1 || st.Segments != 1 || st.Bytes != 0 {
		t.Fatalf("stats after rebase: %+v", st)
	}
	if seq := appendCommit(t, w, rec(100)); seq != first {
		t.Fatalf("first post-rebase append got seq %d, want %d", seq, first)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs := mustOpen(t, dir, Options{})
	defer w2.Close()
	if len(recs) != 1 || recs[0].Seq != first {
		t.Fatalf("reopen after rebase recovered %+v, want one record at seq %d", recs, first)
	}
	if seq := appendCommit(t, w2, rec(101)); seq != first+1 {
		t.Fatalf("post-reopen append got seq %d, want %d", seq, first+1)
	}

	if err := w2.Rebase(0); err == nil {
		t.Fatal("Rebase(0) accepted")
	}
}

// TestRebaseClosed: rebasing a closed log fails with ErrClosed.
func TestRebaseClosed(t *testing.T) {
	w, _ := mustOpen(t, t.TempDir(), Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rebase(7); err != ErrClosed {
		t.Fatalf("Rebase on closed log: %v, want ErrClosed", err)
	}
}

// TestForeignSegmentNameIgnoredLoudly: a wal-*.jsonl file whose name carries
// no sequence number cannot pin the log position — Open must skip it without
// replaying it, and must say so (log line + IgnoredFiles stat) instead of
// failing the whole log or silently replaying garbage.
func TestForeignSegmentNameIgnoredLoudly(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-backup.jsonl"), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000042.jsonl.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, recs, err := Open(dir, Options{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("foreign files replayed as records: %+v", recs)
	}
	if got := w.Stats().IgnoredFiles; got != 2 {
		t.Fatalf("IgnoredFiles = %d, want 2", got)
	}
	logged := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(logged) != 2 {
		t.Fatalf("ignored files logged %d times, want 2: %q", len(logged), logged)
	}
	for _, line := range logged {
		if !strings.Contains(line, "ignoring") {
			t.Fatalf("log line does not announce the ignore: %q", line)
		}
	}
	// The foreign files must survive untouched for operator inspection.
	for _, name := range []string{"wal-backup.jsonl", "wal-0000000000000042.jsonl.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("ignored file %s disturbed: %v", name, err)
		}
	}
}

// TestOnCommitWaitHook: every Commit reports its durability wait to the
// hook, under every sync policy, and a zero-seq Commit (empty batch) skips
// the hook entirely.
func TestOnCommitWaitHook(t *testing.T) {
	for _, policy := range []string{SyncAlways, SyncInterval, SyncOff} {
		t.Run(policy, func(t *testing.T) {
			var calls atomic.Int64
			var total atomic.Int64
			w, _ := mustOpen(t, t.TempDir(), Options{
				Sync: policy,
				OnCommitWait: func(d time.Duration) {
					calls.Add(1)
					total.Add(int64(d))
				},
			})
			defer w.Close()
			for i := 0; i < 3; i++ {
				appendCommit(t, w, rec(i))
			}
			if got := calls.Load(); got != 3 {
				t.Fatalf("hook called %d times, want 3", got)
			}
			if total.Load() < 0 {
				t.Fatalf("negative total wait %v", time.Duration(total.Load()))
			}
			if err := w.Commit(0); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != 3 {
				t.Fatalf("zero-seq Commit invoked the hook (%d calls)", got)
			}
		})
	}
}

// TestOnCommitWaitMeasuresFsync: with an artificially slow fsync the hook's
// reported wait must cover the fsync latency — the signal operators use to
// attribute ingest tail latency to storage stalls.
func TestOnCommitWaitMeasuresFsync(t *testing.T) {
	const stall = 20 * time.Millisecond
	var waits []time.Duration
	var mu sync.Mutex
	w, _ := mustOpen(t, t.TempDir(), Options{
		Sync: SyncAlways,
		OnCommitWait: func(d time.Duration) {
			mu.Lock()
			waits = append(waits, d)
			mu.Unlock()
		},
	})
	defer w.Close()
	w.syncFile = func(f *os.File) error {
		time.Sleep(stall)
		return f.Sync()
	}
	appendCommit(t, w, rec(0))
	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 1 || waits[0] < stall {
		t.Fatalf("hook reported %v, want >= %v", waits, stall)
	}
}
