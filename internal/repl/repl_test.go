package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corrfuse/internal/wal"
)

func rec(i int) wal.Record {
	return wal.Record{
		Source:    fmt.Sprintf("src%d", i%3),
		Subject:   fmt.Sprintf("s%d", i),
		Predicate: "p",
		Object:    "v",
	}
}

func mustWAL(t *testing.T, opts wal.Options) *wal.WAL {
	t.Helper()
	w, _, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func appendCommit(t *testing.T, w *wal.WAL, r wal.Record) {
	t.Helper()
	seq, err := w.Append(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatal(err)
	}
}

// applied collects records Apply receives, concurrency-safe.
type applied struct {
	mu   sync.Mutex
	recs []wal.Record
}

func (a *applied) apply(recs []wal.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recs = append(a.recs, recs...)
	return nil
}

func (a *applied) len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.recs)
}

// testLogger routes a component's log lines into the test's output.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func newLeaderServer(t *testing.T, w *wal.WAL, snapshot func(io.Writer) error, covered func() uint64) *httptest.Server {
	t.Helper()
	l, err := NewLeader(LeaderOptions{
		WAL:           w,
		CoveredSeq:    covered,
		WriteSnapshot: snapshot,
		Logger:        testLogger(t),
		PollInterval:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l)
	t.Cleanup(srv.Close)
	return srv
}

func newTestFollower(t *testing.T, leaderURL string, fw *wal.WAL, sink *applied) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerOptions{
		LeaderURL:  leaderURL,
		WAL:        fw,
		Apply:      sink.apply,
		Logger:     testLogger(t),
		FetchWait:  200 * time.Millisecond,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFollowerReplicates: records committed on the leader arrive at the
// follower's Apply and its own log, in order, with a caught-up status.
func TestFollowerReplicates(t *testing.T) {
	lw := mustWAL(t, wal.Options{})
	const n = 12
	for i := 0; i < n; i++ {
		appendCommit(t, lw, rec(i))
	}
	srv := newLeaderServer(t, lw, nil, nil)
	fw := mustWAL(t, wal.Options{})
	sink := &applied{}
	f := newTestFollower(t, srv.URL, fw, sink)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	waitFor(t, "replication of the first batch", func() bool { return sink.len() == n })
	// Records committed while the follower is live arrive via long-poll.
	appendCommit(t, lw, rec(n))
	waitFor(t, "live tail replication", func() bool { return sink.len() == n+1 })
	waitFor(t, "caught-up status", func() bool {
		st := f.Status()
		return st.Connected && st.AppliedSeq == n+1 && st.LagRecords == 0 && st.LagSeconds == 0
	})
	if st := f.Status(); st.SegmentsShipped == 0 {
		t.Fatal("SegmentsShipped never incremented")
	}
	if got := fw.Seq(); got != n+1 {
		t.Fatalf("follower log head %d, want %d", got, n+1)
	}

	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, r := range sink.recs {
		if r.Seq != uint64(i+1) || r.Subject != fmt.Sprintf("s%d", i%(n+1)) {
			t.Fatalf("applied record %d out of order or corrupted: %+v", i, r)
		}
	}
}

// TestFollowerSurvivesLeaderRestart: a dead leader flips Connected to
// false (stale reads, no crash); a revived one at the same address
// reconnects and resumes.
func TestFollowerSurvivesLeaderRestart(t *testing.T) {
	lw := mustWAL(t, wal.Options{})
	appendCommit(t, lw, rec(0))

	l, err := NewLeader(LeaderOptions{WAL: lw, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var down bool
	var downMu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		downMu.Lock()
		d := down
		downMu.Unlock()
		if d {
			// Simulate the restart window: connection-level failure.
			panic(http.ErrAbortHandler)
		}
		l.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	fw := mustWAL(t, wal.Options{})
	sink := &applied{}
	f := newTestFollower(t, srv.URL, fw, sink)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		f.Run(ctx)
	}()

	waitFor(t, "initial replication", func() bool { return sink.len() == 1 })

	downMu.Lock()
	down = true
	downMu.Unlock()
	waitFor(t, "disconnect detection", func() bool { return !f.Status().Connected })
	if f.LastError() == "" {
		t.Fatal("disconnect left no LastError")
	}

	appendCommit(t, lw, rec(1))
	downMu.Lock()
	down = false
	downMu.Unlock()
	waitFor(t, "reconnect and catch-up", func() bool {
		st := f.Status()
		return st.Connected && st.AppliedSeq == 2
	})
	if sink.len() != 2 {
		t.Fatalf("applied %d records after reconnect, want 2", sink.len())
	}
}

// TestFollowerRejectsTamperedShipment: a proxy flipping one bit in the body
// must make the follower reject the batch and apply nothing.
func TestFollowerRejectsTamperedShipment(t *testing.T) {
	lw := mustWAL(t, wal.Options{})
	appendCommit(t, lw, rec(0))
	l, err := NewLeader(LeaderOptions{WAL: lw, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tamper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rr := httptest.NewRecorder()
		l.ServeHTTP(rr, r)
		for k, vs := range rr.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		body := rr.Body.Bytes()
		if rr.Code == http.StatusOK && len(body) > 0 {
			body[len(body)/2] ^= 0x40
		}
		w.WriteHeader(rr.Code)
		w.Write(body)
	}))
	t.Cleanup(tamper.Close)

	fw := mustWAL(t, wal.Options{})
	sink := &applied{}
	f := newTestFollower(t, tamper.URL, fw, sink)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	f.Run(ctx)

	if sink.len() != 0 {
		t.Fatalf("tampered shipment applied %d records, want 0", sink.len())
	}
	if fw.Seq() != 0 {
		t.Fatalf("tampered shipment reached the follower log (seq %d)", fw.Seq())
	}
	if !strings.Contains(f.LastError(), "crc") && !strings.Contains(f.LastError(), "shipment") {
		t.Fatalf("LastError does not explain the rejection: %q", f.LastError())
	}
}

// TestFollowerTruncated410: a leader whose history moved past the follower
// answers 410; the follower logs it, stays up, and does not apply garbage.
func TestFollowerTruncated410(t *testing.T) {
	lw := mustWAL(t, wal.Options{SegmentBytes: 1})
	for i := 0; i < 6; i++ {
		appendCommit(t, lw, rec(i))
	}
	if err := lw.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	srv := newLeaderServer(t, lw, nil, nil)

	// A fresh follower asks from seq 1, which is truncated away.
	fw := mustWAL(t, wal.Options{})
	sink := &applied{}
	f := newTestFollower(t, srv.URL, fw, sink)
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	f.Run(ctx)

	if sink.len() != 0 {
		t.Fatalf("truncated follower applied %d records", sink.len())
	}
	if !strings.Contains(f.LastError(), "re-bootstrap") {
		t.Fatalf("410 not surfaced as a re-bootstrap error: %q", f.LastError())
	}
	if f.Status().Connected {
		t.Fatal("truncated follower still reports Connected")
	}
}

// TestFollowerAutoRebootstrap: a 410 with a Rebootstrap hook configured
// re-bootstraps in place — snapshot downloaded, local WAL rebased to
// covered+1, shipping resumed from there — instead of parking on an
// operator error, and the Rebootstraps counter records it happened.
func TestFollowerAutoRebootstrap(t *testing.T) {
	lw := mustWAL(t, wal.Options{SegmentBytes: 1})
	for i := 0; i < 6; i++ {
		appendCommit(t, lw, rec(i))
	}
	if err := lw.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	const storeBody = "leader-store-snapshot\n"
	srv := newLeaderServer(t, lw,
		func(w io.Writer) error { _, err := io.WriteString(w, storeBody); return err },
		func() uint64 { return 4 }, // snapshot covers the truncated seqs 1-4
	)

	fw := mustWAL(t, wal.Options{})
	sink := &applied{}
	var snapMu sync.Mutex
	var snapshots []string
	f, err := NewFollower(FollowerOptions{
		LeaderURL: srv.URL,
		WAL:       fw,
		Apply:     sink.apply,
		Rebootstrap: func(ctx context.Context) error {
			covered, body, err := Snapshot(ctx, nil, srv.URL)
			if err != nil {
				return err
			}
			b, err := io.ReadAll(body)
			body.Close()
			if err != nil {
				return err
			}
			snapMu.Lock()
			snapshots = append(snapshots, string(b))
			snapMu.Unlock()
			return fw.Rebase(covered + 1)
		},
		Logger:     testLogger(t),
		FetchWait:  200 * time.Millisecond,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		f.Run(ctx)
	}()

	// A fresh follower asks from seq 1, which is truncated away: 410 →
	// auto-rebootstrap → resume shipping the retained seqs 5-6.
	waitFor(t, "post-rebootstrap replication", func() bool { return sink.len() == 2 })
	sink.mu.Lock()
	if sink.recs[0].Seq != 5 || sink.recs[1].Seq != 6 {
		t.Fatalf("post-rebootstrap shipment seqs %d,%d; want 5,6", sink.recs[0].Seq, sink.recs[1].Seq)
	}
	sink.mu.Unlock()
	snapMu.Lock()
	if len(snapshots) != 1 || snapshots[0] != storeBody {
		t.Fatalf("rebootstrap downloaded %d snapshots (%q), want one of %q", len(snapshots), snapshots, storeBody)
	}
	snapMu.Unlock()
	waitFor(t, "caught-up post-rebootstrap status", func() bool {
		st := f.Status()
		return st.Connected && st.AppliedSeq == 6 && st.Rebootstraps == 1 && !st.Diverged
	})
	if got := fw.Seq(); got != 6 {
		t.Fatalf("follower log head %d after rebootstrap, want 6", got)
	}

	// The link is fully healed: live tail records keep flowing.
	appendCommit(t, lw, rec(6))
	waitFor(t, "live tail after rebootstrap", func() bool { return sink.len() == 3 })
}

// TestDivergedNeverRebootstraps: divergence means the follower holds
// acknowledged records the leader lost — discarding them is an operator
// decision, so the automatic Rebootstrap hook must never fire for it.
func TestDivergedNeverRebootstraps(t *testing.T) {
	lw := mustWAL(t, wal.Options{})
	appendCommit(t, lw, rec(0))
	fw := mustWAL(t, wal.Options{})
	for i := 0; i < 4; i++ {
		appendCommit(t, fw, rec(i)) // follower runs ahead of the leader
	}
	srv := newLeaderServer(t, lw, nil, nil)
	sink := &applied{}
	var hookCalls atomic.Uint64
	f, err := NewFollower(FollowerOptions{
		LeaderURL: srv.URL,
		WAL:       fw,
		Apply:     sink.apply,
		Rebootstrap: func(ctx context.Context) error {
			hookCalls.Add(1)
			return nil
		},
		Logger:     testLogger(t),
		FetchWait:  200 * time.Millisecond,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		f.Run(ctx)
	}()

	waitFor(t, "diverged state", func() bool { return f.Status().Diverged })
	time.Sleep(100 * time.Millisecond) // several backoff cycles on the sticky error
	if n := hookCalls.Load(); n != 0 {
		t.Fatalf("Rebootstrap hook fired %d times on divergence", n)
	}
	if st := f.Status(); st.Rebootstraps != 0 {
		t.Fatalf("diverged follower counted %d rebootstraps", st.Rebootstraps)
	}
}

// TestSnapshotBootstrap: the snapshot endpoint streams the store with the
// covered-seq header, and a follower bootstrapped at covered+1 resumes
// shipping without a gap.
func TestSnapshotBootstrap(t *testing.T) {
	lw := mustWAL(t, wal.Options{})
	for i := 0; i < 5; i++ {
		appendCommit(t, lw, rec(i))
	}
	const storeBody = "fake-store-jsonl\n"
	srv := newLeaderServer(t, lw,
		func(w io.Writer) error { _, err := io.WriteString(w, storeBody); return err },
		func() uint64 { return 3 }, // snapshot covers seqs 1-3
	)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	covered, body, err := Snapshot(ctx, nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(body)
	body.Close()
	if err != nil || string(b) != storeBody {
		t.Fatalf("snapshot body %q (err=%v), want %q", b, err, storeBody)
	}
	if covered != 3 {
		t.Fatalf("covered seq %d, want 3", covered)
	}

	// Bootstrap the follower log at covered+1 and follow: only seqs 4-5
	// ship (1-3 are in the snapshot).
	fdir := t.TempDir()
	if err := wal.WriteBootstrapSegment(fdir, covered+1); err != nil {
		t.Fatal(err)
	}
	fw, _, err := wal.Open(fdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close() })
	sink := &applied{}
	f := newTestFollower(t, srv.URL, fw, sink)
	runCtx, stop := context.WithCancel(context.Background())
	defer stop()
	go func() {
		f.Run(runCtx)
	}()
	waitFor(t, "post-bootstrap catch-up", func() bool { return sink.len() == 2 })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.recs[0].Seq != 4 || sink.recs[1].Seq != 5 {
		t.Fatalf("post-bootstrap shipment seqs %d,%d; want 4,5", sink.recs[0].Seq, sink.recs[1].Seq)
	}
}

// TestFollowerDetectsDivergedLeader: a follower whose log runs past the
// leader's durable history (leader data loss, wipe, or older-backup restore)
// must not read the leader's caught-up 204 as healthy — it latches a sticky
// diverged state, stops fetching, and keeps serving stale reads.
func TestFollowerDetectsDivergedLeader(t *testing.T) {
	lw := mustWAL(t, wal.Options{})
	for i := 0; i < 2; i++ {
		appendCommit(t, lw, rec(i))
	}
	fw := mustWAL(t, wal.Options{})
	for i := 0; i < 5; i++ {
		appendCommit(t, fw, rec(i)) // follower is 3 records ahead
	}
	srv := newLeaderServer(t, lw, nil, nil)
	sink := &applied{}
	f := newTestFollower(t, srv.URL, fw, sink)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		f.Run(ctx)
	}()

	waitFor(t, "diverged state", func() bool { return f.Status().Diverged })
	if f.Status().Connected {
		t.Fatal("diverged follower reports Connected")
	}
	if !strings.Contains(f.LastError(), "re-bootstrap") {
		t.Fatalf("divergence not surfaced as a re-bootstrap error: %q", f.LastError())
	}

	// Sticky: the leader re-appending past the follower's position (with
	// what would be different data for the same seqs) must not "heal" the
	// link — nothing may ever be fetched again.
	for i := 0; i < 6; i++ {
		appendCommit(t, lw, rec(100+i))
	}
	time.Sleep(150 * time.Millisecond) // several backoff cycles
	if sink.len() != 0 {
		t.Fatalf("diverged follower fetched %d records from the re-grown leader", sink.len())
	}
	if st := f.Status(); !st.Diverged || st.Connected {
		t.Fatalf("diverged state did not stick: %+v", st)
	}
}

// TestSnapshotStreamFailureAbortsConnection: a store stream that fails
// mid-body for a non-network reason must tear the connection down — a
// cleanly terminated chunked response would hand the follower a
// truncated-but-parseable store that bootstraps with no error, permanently
// missing records <= covered.
func TestSnapshotStreamFailureAbortsConnection(t *testing.T) {
	lw := mustWAL(t, wal.Options{})
	appendCommit(t, lw, rec(0))
	srv := newLeaderServer(t, lw,
		func(w io.Writer) error {
			if _, err := io.WriteString(w, "{\"partial\":\"store line\"}\n"); err != nil {
				return err
			}
			return errors.New("store iteration failed")
		},
		func() uint64 { return 1 },
	)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	covered, body, err := Snapshot(ctx, nil, srv.URL)
	if err != nil {
		// Headers and the 200 left before the failure, so the call itself
		// succeeds; the error must surface while reading the body.
		t.Fatalf("Snapshot: %v", err)
	}
	defer body.Close()
	if covered != 1 {
		t.Fatalf("covered seq %d, want 1", covered)
	}
	if _, err := io.ReadAll(body); err == nil {
		t.Fatal("truncated snapshot stream read cleanly to EOF; a partial store would bootstrap silently")
	}
}

// TestLeaderLongPollAndParamValidation: 204 after the wait when caught up;
// structured 400s on bad parameters.
func TestLeaderLongPollAndParamValidation(t *testing.T) {
	lw := mustWAL(t, wal.Options{})
	appendCommit(t, lw, rec(0))
	srv := newLeaderServer(t, lw, nil, nil)

	start := time.Now()
	resp, err := http.Get(srv.URL + "/repl/wal?from=2&wait=0.15")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("caught-up long-poll answered %d, want 204", resp.StatusCode)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("long-poll returned after %s, want ~150ms of waiting", waited)
	}
	if got := resp.Header.Get(HdrHeadSeq); got != "1" {
		t.Fatalf("204 head-seq header %q, want 1", got)
	}

	for _, q := range []string{"", "from=0", "from=x", "from=1&wait=-1"} {
		resp, err := http.Get(srv.URL + "/repl/wal?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q answered %d, want 400", q, resp.StatusCode)
		}
	}

	// No snapshot hooks configured: /repl/snapshot is absent.
	resp, err = http.Get(srv.URL + "/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot without hooks answered %d, want 404", resp.StatusCode)
	}
}
