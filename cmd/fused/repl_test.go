package main

// Replication end-to-end tests: a live leader+follower pair wired through
// run() exactly as the binary wires them, covering follower bootstrap,
// read-only enforcement, leader-restart staleness, and — in the subprocess
// crash test — SIGKILL mid-replay with zero acked-write divergence.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bootRun starts run() with o and returns the public base URL plus the
// shutdown pair. It fatals if the server never becomes ready.
func bootRun(t *testing.T, o options) (string, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, o, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, errc
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("server never became ready")
	}
	panic("unreachable")
}

func shutdownRun(t *testing.T, cancel context.CancelFunc, errc chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never shut down")
	}
}

// getMap fetches url and decodes the JSON object body, returning the status
// code alongside so callers can assert degraded states without fataling.
func getMap(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, m
}

// replStatus pulls the repl section out of a follower's /healthz.
func replStatus(t *testing.T, base string) (map[string]any, bool) {
	t.Helper()
	code, health := getMap(t, base+"/healthz")
	if code != http.StatusOK || health == nil {
		return nil, false
	}
	repl, ok := health["repl"].(map[string]any)
	return repl, ok
}

// waitUntil polls cond every 20ms until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func leaderOptions(t *testing.T, dir, debugAddr string) options {
	t.Helper()
	path := writeStore(t)
	return options{
		storePath: path, addr: "127.0.0.1:0", method: "corr", scope: "global",
		smoothing: 0.1, refresh: time.Hour, shards: 1,
		walDir: filepath.Join(dir, "wal"), walSync: "always",
		walSyncInterval: 100 * time.Millisecond, walSegmentBytes: 1 << 20,
		walRetain: 4, debugAddr: debugAddr, logFormat: "text", logLevel: "warn",
	}
}

func followerOptions(dir, leaderURL string) options {
	return options{
		storePath: filepath.Join(dir, "store.jsonl"), addr: "127.0.0.1:0",
		method: "corr", scope: "global", smoothing: 0.1, refresh: time.Hour,
		shards: 1, walDir: filepath.Join(dir, "wal"), walSync: "interval",
		walSyncInterval: 50 * time.Millisecond, walSegmentBytes: 1 << 20,
		follow: leaderURL, logFormat: "text", logLevel: "info",
	}
}

// reservePort grabs a free listener address and releases it for run() to
// bind (the tiny reuse race is acceptable in tests).
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func observe(t *testing.T, base, source, subject string) (int, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(map[string]string{
		"source": source, "subject": subject, "predicate": "p", "object": "v",
	})
	resp, err := http.Post(base+"/v1/observe", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m
}

// TestReplicationLifecycle wires a leader and a follower exactly as the
// binary does: the follower bootstraps from the leader's snapshot, tails the
// shipped log, serves reads while rejecting writes, and — across a leader
// restart — degrades to stale reads with connected=0, then reconnects and
// resumes without losing its place.
func TestReplicationLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process lifecycle test")
	}
	leaderDir := t.TempDir()
	debugAddr := reservePort(t)
	lo := leaderOptions(t, leaderDir, debugAddr)
	leaderBase, leaderCancel, leaderErrc := bootRun(t, lo)
	leaderURL := "http://" + debugAddr

	followerDir := t.TempDir()
	fo := followerOptions(followerDir, leaderURL)
	followerBase, followerCancel, followerErrc := bootRun(t, fo)
	defer func() { shutdownRun(t, followerCancel, followerErrc) }()

	// Bootstrap carried the seed store over: a seed triple is readable from
	// the follower without any log shipping.
	code, body := getMap(t, followerBase+"/v1/triple?subject=t0&predicate=p&object=v")
	if code != http.StatusOK {
		t.Fatalf("follower bootstrap read: %d %v", code, body)
	}

	// A write ingested through the leader becomes readable on the follower.
	if code, ack := observe(t, leaderBase, "good1", "repl-live"); code != http.StatusOK {
		t.Fatalf("leader observe: %d %v", code, ack)
	}
	waitUntil(t, 10*time.Second, "replicated triple on the follower", func() bool {
		code, _ := getMap(t, followerBase+"/v1/triple?subject=repl-live&predicate=p&object=v")
		return code == http.StatusOK
	})

	// The follower rejects writes with a structured 403 naming the leader.
	code, reject := observe(t, followerBase, "good1", "nope")
	if code != http.StatusForbidden {
		t.Fatalf("follower observe answered %d, want 403", code)
	}
	if l, _ := reject["leader"].(string); l != leaderURL {
		t.Fatalf("403 body does not name the leader: %v", reject)
	}

	// Health and metrics report the link as connected.
	waitUntil(t, 10*time.Second, "follower connected in /healthz", func() bool {
		st, ok := replStatus(t, followerBase)
		if !ok {
			return false
		}
		c, _ := st["connected"].(bool)
		return c
	})
	resp, err := http.Get(followerBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte("corrfused_repl_follower_connected 1")) {
		t.Fatalf("metrics do not report follower_connected 1:\n%.400s", raw)
	}

	// Kill the leader: the follower must keep serving (stale) and report the
	// link down — never crash.
	shutdownRun(t, leaderCancel, leaderErrc)
	waitUntil(t, 15*time.Second, "follower to notice the dead leader", func() bool {
		st, ok := replStatus(t, followerBase)
		if !ok {
			return false
		}
		c, _ := st["connected"].(bool)
		return !c
	})
	code, _ = getMap(t, followerBase+"/v1/triple?subject=repl-live&predicate=p&object=v")
	if code != http.StatusOK {
		t.Fatalf("stale read during leader outage answered %d, want 200", code)
	}
	resp, err = http.Get(followerBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte("corrfused_repl_follower_connected 0")) {
		t.Fatalf("metrics do not report follower_connected 0 during outage:\n%.400s", raw)
	}

	// Restart the leader on the same addresses: the follower reconnects by
	// itself (exponential backoff, no operator action) and resumes shipping.
	lo2 := lo
	leaderBase, leaderCancel, leaderErrc = bootRun(t, lo2)
	defer func() { shutdownRun(t, leaderCancel, leaderErrc) }()
	waitUntil(t, 30*time.Second, "follower to reconnect", func() bool {
		st, ok := replStatus(t, followerBase)
		if !ok {
			return false
		}
		c, _ := st["connected"].(bool)
		return c
	})
	if code, ack := observe(t, leaderBase, "good2", "repl-live2"); code != http.StatusOK {
		t.Fatalf("post-restart leader observe: %d %v", code, ack)
	}
	waitUntil(t, 10*time.Second, "post-restart replication", func() bool {
		code, _ := getMap(t, followerBase+"/v1/triple?subject=repl-live2&predicate=p&object=v")
		return code == http.StatusOK
	})
}

// Env gates for the follower half of the crash test.
const (
	replChildEnv    = "FUSED_REPL_CHILD"
	replChildDirEnv = "FUSED_REPL_DIR"
	replLeaderEnv   = "FUSED_REPL_LEADER"
)

// TestReplFollowerChildProcess is not a test in its own right: it is the
// follower process TestFollowerCrashConvergence SIGKILLs. Run directly it
// skips.
func TestReplFollowerChildProcess(t *testing.T) {
	if os.Getenv(replChildEnv) != "1" {
		t.Skip("helper process for TestFollowerCrashConvergence")
	}
	dir := os.Getenv(replChildDirEnv)
	o := followerOptions(dir, os.Getenv(replLeaderEnv))
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(context.Background(), o, ready) }()
	select {
	case addr := <-ready:
		// Publish the address atomically so the parent never reads a torn
		// file.
		tmp := filepath.Join(dir, ".addr.tmp")
		if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
			t.Fatal(err)
		}
	case err := <-errc:
		t.Fatalf("follower exited early: %v", err)
	}
	// Serve until SIGKILL. This never returns cleanly by design.
	t.Fatal(<-errc)
}

// TestFollowerCrashConvergence is the replication durability proof: a real
// follower process is SIGKILLed mid-replay — while writers hammer the leader
// — then restarted against the same directories. It must resume from its
// local log (bootstrap happens once), catch back up, and converge to the
// leader's exact fused results: every acknowledged write present on both
// sides with probabilities equal to 1e-9.
func TestFollowerCrashConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	leaderDir := t.TempDir()
	debugAddr := reservePort(t)
	lo := leaderOptions(t, leaderDir, debugAddr)
	leaderBase, leaderCancel, leaderErrc := bootRun(t, lo)
	defer func() { shutdownRun(t, leaderCancel, leaderErrc) }()
	leaderURL := "http://" + debugAddr

	// Concurrent writers record exactly the observations whose 200 we saw.
	const writers = 3
	sources := []string{"good1", "good2", "bad"}
	acked := make([][]string, writers)
	var ackCount atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	client := &http.Client{Timeout: 5 * time.Second}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				subject := fmt.Sprintf("crash-%d-%d", w, i)
				raw, _ := json.Marshal(map[string]string{
					"source": sources[(w+i)%len(sources)], "subject": subject,
					"predicate": "p", "object": "v",
				})
				resp, err := client.Post(leaderBase+"/v1/observe", "application/json", bytes.NewReader(raw))
				if err != nil {
					return
				}
				var body map[string]any
				decErr := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					return
				}
				acked[w] = append(acked[w], subject)
				ackCount.Add(1)
			}
		}(w)
	}
	var stopOnce sync.Once
	stopWriters := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer stopWriters()
	waitUntil(t, 30*time.Second, "initial acknowledged writes", func() bool {
		return ackCount.Load() >= 40
	})

	followerDir := t.TempDir()
	startChild := func() (*exec.Cmd, string, chan error, *bytes.Buffer) {
		os.Remove(filepath.Join(followerDir, "addr"))
		cmd := exec.Command(os.Args[0], "-test.run=^TestReplFollowerChildProcess$", "-test.v")
		cmd.Env = append(os.Environ(),
			replChildEnv+"=1", replChildDirEnv+"="+followerDir, replLeaderEnv+"="+leaderURL)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitErr := make(chan error, 1)
		go func() { waitErr <- cmd.Wait() }()
		var base string
		deadline := time.Now().Add(20 * time.Second)
		for {
			if raw, err := os.ReadFile(filepath.Join(followerDir, "addr")); err == nil && len(raw) > 0 {
				base = "http://" + string(raw)
				break
			}
			select {
			case <-waitErr:
				t.Fatalf("follower child exited before becoming ready:\n%s", out.String())
			default:
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				<-waitErr
				t.Fatalf("follower child never became ready:\n%s", out.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		return cmd, base, waitErr, &out
	}

	// First follower: wait for mid-replay (some records applied, writers
	// still pushing the head forward), then SIGKILL it.
	child, childBase, childWait, childOut := startChild()
	waitUntil(t, 30*time.Second, "follower mid-replay progress", func() bool {
		select {
		case <-childWait:
			t.Fatalf("follower child died on its own:\n%s", childOut.String())
		default:
		}
		st, ok := replStatus(t, childBase)
		if !ok {
			return false
		}
		applied, _ := st["appliedSeq"].(float64)
		return applied >= 20
	})
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-childWait // SIGKILL: Wait error by design

	// Keep writing through the outage so the restart lands mid-stream too.
	waitUntil(t, 30*time.Second, "more acknowledged writes during the outage", func() bool {
		return ackCount.Load() >= 120
	})

	// Second follower over the same directories: local WAL history exists,
	// so it must resume (replay + refetch), not re-bootstrap.
	child2, child2Base, child2Wait, child2Out := startChild()
	child2Reaped := false
	reapChild2 := func() {
		// Wait joins the output copiers: child2Out is only read after this.
		child2.Process.Kill()
		if !child2Reaped {
			<-child2Wait
			child2Reaped = true
		}
	}
	defer reapChild2()
	stopWriters()
	total := int(ackCount.Load())

	// The leader's log head after the last ack: the follower is converged
	// when it has applied exactly that far.
	code, health := getMap(t, leaderBase+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("leader healthz: %d", code)
	}
	walInfo, ok := health["wal"].(map[string]any)
	if !ok {
		t.Fatalf("leader healthz has no wal section: %v", health)
	}
	headSeq, _ := walInfo["seq"].(float64)
	if headSeq < float64(total) {
		t.Fatalf("leader wal seq %v below %d acked writes", headSeq, total)
	}
	waitUntil(t, 60*time.Second, "restarted follower to catch up", func() bool {
		select {
		case <-child2Wait:
			child2Reaped = true
			t.Fatalf("restarted follower died:\n%s", child2Out.String())
		default:
		}
		st, ok := replStatus(t, child2Base)
		if !ok {
			return false
		}
		applied, _ := st["appliedSeq"].(float64)
		lag, _ := st["lagRecords"].(float64)
		connected, _ := st["connected"].(bool)
		return connected && lag == 0 && applied >= headSeq
	})

	// Force a full re-fusion on both sides, then compare: every acknowledged
	// write readable on the follower with the leader's exact probability.
	for _, base := range []string{leaderBase, child2Base} {
		resp, err := client.Post(base+"/v1/refuse", "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refuse on %s: %d", base, resp.StatusCode)
		}
	}
	lost, diverged := 0, 0
	for w := range acked {
		for _, subject := range acked[w] {
			q := "/v1/triple?subject=" + subject + "&predicate=p&object=v"
			lcode, lm := getMap(t, leaderBase+q)
			fcode, fm := getMap(t, child2Base+q)
			if lcode != http.StatusOK || fcode != http.StatusOK || lm == nil || fm == nil {
				lost++
				t.Errorf("acked %s: leader %d, follower %d", subject, lcode, fcode)
				continue
			}
			lr, _ := lm["result"].(map[string]any)
			fr, _ := fm["result"].(map[string]any)
			if lr == nil || fr == nil {
				lost++
				t.Errorf("acked %s: malformed triple response", subject)
				continue
			}
			lp, _ := lr["probability"].(float64)
			fp, _ := fr["probability"].(float64)
			if math.Abs(lp-fp) > 1e-9 {
				diverged++
				t.Errorf("%s diverged: leader %.12f, follower %.12f", subject, lp, fp)
			}
		}
	}
	if lost == 0 && diverged == 0 {
		t.Logf("follower crash convergence: %d acked writes, SIGKILL mid-replay, 0 lost, 0 diverged", total)
	}

	// The restarted follower resumed from local history: exactly one
	// bootstrap happened across both child lives.
	reapChild2()
	if strings.Count(childOut.String()+child2Out.String(), "follower bootstrapped from leader snapshot") > 1 {
		t.Error("restarted follower re-bootstrapped instead of resuming from its log")
	}
}
