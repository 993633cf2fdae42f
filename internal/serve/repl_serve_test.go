package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corrfuse/internal/repl"
	"corrfuse/internal/store"
	"corrfuse/internal/wal"
)

// replHTTP issues one request and returns the status code and raw body —
// unlike postJSON/getJSON it does not fatal on non-200, which follower
// write-rejection tests need.
func replHTTP(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestReadOnlyFollowerRejectsWrites: a ReadOnly server answers /v1/observe
// with a structured 403 naming the leader, while the read endpoints and
// /v1/refuse (local re-fusion) keep serving.
func TestReadOnlyFollowerRejectsWrites(t *testing.T) {
	cfg := corrConfig()
	cfg.ReadOnly = true
	cfg.LeaderURL = "http://leader.example:6060"
	srv := newServer(t, seedStore(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, raw := replHTTP(t, "POST", ts.URL+"/v1/observe",
		`{"source":"good1","subject":"t0","predicate":"p","object":"v"}`)
	if code != http.StatusForbidden {
		t.Fatalf("observe on a follower answered %d, want 403", code)
	}
	var body struct {
		Error  string `json:"error"`
		Leader string `json:"leader"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("403 body not JSON: %v (%s)", err, raw)
	}
	if !strings.Contains(body.Error, "read-only") || body.Leader != cfg.LeaderURL {
		t.Fatalf("403 body does not point at the leader: %+v", body)
	}

	for _, path := range []string{
		"/v1/triple?subject=t0&predicate=p&object=v",
		"/v1/subject/t0",
		"/v1/source/good1",
		"/healthz",
	} {
		if code, _ := replHTTP(t, "GET", ts.URL+path, ""); code != http.StatusOK {
			t.Fatalf("GET %s on a follower answered %d, want 200", path, code)
		}
	}
	if code, _ := replHTTP(t, "POST", ts.URL+"/v1/refuse", ""); code != http.StatusOK {
		t.Fatalf("refuse on a follower answered %d, want 200", code)
	}
}

// TestApplyReplicated: replicated records land in the store, the journal
// and the live scorer exactly like ingested ones — visible to /v1/triple
// immediately and to the next rebuild; and a non-follower refuses the call.
func TestApplyReplicated(t *testing.T) {
	cfg := corrConfig()
	cfg.ReadOnly = true
	srv := newServer(t, seedStore(t), cfg)

	recs := []wal.Record{
		{Seq: 1, Source: "good1", Subject: "repl1", Predicate: "p", Object: "v"},
		{Seq: 2, Source: "good2", Subject: "repl1", Predicate: "p", Object: "v"},
		{Seq: 3, Source: "newsource", Subject: "repl2", Predicate: "p", Object: "v"},
	}
	if err := srv.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	e, ok := srv.store.Get(tr("repl1", "v"))
	if !ok || len(e.Sources) != 2 {
		t.Fatalf("replicated triple not merged into the store: %+v (ok=%v)", e, ok)
	}
	// The live scorer saw the known-source claims: /v1/triple serves a live
	// probability without waiting for a rebuild.
	if p, live, ok := srv.liveProbability(srv.snap.Load(), tr("repl1", "v")); !ok || !live || p <= 0 {
		t.Fatalf("replicated claim not live-scored: p=%v live=%v ok=%v", p, live, ok)
	}
	// The unknown source is queued for the next rebuild, like ingest.
	srv.live.RLock()
	unknown := srv.live.unknown["newsource"]
	journal := len(srv.live.journal)
	srv.live.RUnlock()
	if !unknown {
		t.Fatal("unknown replicated source not queued for the next rebuild")
	}
	if journal != len(recs) {
		t.Fatalf("journal holds %d entries, want %d", journal, len(recs))
	}

	writer := newServer(t, seedStore(t), corrConfig())
	if err := writer.ApplyReplicated(recs); err == nil {
		t.Fatal("ApplyReplicated accepted on a non-follower server")
	}
}

// TestCoveredSeqIsDurableWatermark: the bootstrap watermark is the WAL's
// durability watermark, not its head. A snapshot served while records sit
// appended-but-unfsynced would otherwise pin a bootstrapped follower past
// sequence numbers a crashed leader restarts below and reassigns to
// different data — a silent permanent fork with perfect seq continuity.
func TestCoveredSeqIsDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	cfg.WALSync = wal.SyncInterval
	cfg.WALSyncInterval = time.Hour // no fsync fires during the test window
	srv := newServer(t, seedStore(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, subj := range []string{"cov1", "cov2", "cov3"} {
		if _, code := postObserve(t, ts.URL, Observation{Source: "good1", Subject: subj, Predicate: "p", Object: "v"}); code != http.StatusOK {
			t.Fatalf("observe %s: %d", subj, code)
		}
	}
	st := srv.wal.Stats()
	if st.Seq != 3 || st.DurableSeq != 0 {
		t.Fatalf("precondition: head=%d durable=%d, want 3 appended-but-unfsynced records", st.Seq, st.DurableSeq)
	}
	if got := srv.CoveredSeq(); got != 0 {
		t.Fatalf("CoveredSeq() = %d, covering records no fsync protects (head %d)", got, st.Seq)
	}
	// Once the records are durable, the watermark follows.
	if err := srv.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := srv.CoveredSeq(); got != 3 {
		t.Fatalf("CoveredSeq() after Sync = %d, want 3", got)
	}
}

// TestServerRebootstrap: the 410-recovery apply half — a leader snapshot
// stream merges into the follower's store and the local WAL is rebased so
// the next shipped record is covered+1; non-followers and WAL-less servers
// refuse the call.
func TestServerRebootstrap(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	cfg.ReadOnly = true
	srv := newServer(t, seedStore(t), cfg)

	// Stale local history the leader has since truncated past.
	if err := srv.ApplyReplicated([]wal.Record{
		{Seq: 1, Source: "good1", Subject: "old1", Predicate: "p", Object: "v"},
	}); err != nil {
		t.Fatal(err)
	}
	// The leader's snapshot: its current store as JSONL, covering seq 9.
	donor := store.New()
	donor.Put(store.Entry{Triple: tr("old1", "v"), Sources: []string{"good1"}})
	donor.Put(store.Entry{Triple: tr("reboot1", "v"), Sources: []string{"good1", "good2"}})
	var snap bytes.Buffer
	if err := donor.Write(&snap); err != nil {
		t.Fatal(err)
	}
	const covered = 9
	if err := srv.Rebootstrap(covered, &snap); err != nil {
		t.Fatal(err)
	}
	if e, ok := srv.store.Get(tr("reboot1", "v")); !ok || len(e.Sources) != 2 {
		t.Fatalf("snapshot entry not merged: %+v (ok=%v)", e, ok)
	}
	if e, ok := srv.store.Get(tr("old1", "v")); !ok || len(e.Sources) != 1 {
		t.Fatalf("pre-rebootstrap entry lost or duplicated: %+v (ok=%v)", e, ok)
	}
	if got := srv.wal.Seq(); got != covered {
		t.Fatalf("WAL seq %d after rebootstrap, want %d (next shipped record lands at %d)", got, covered, covered+1)
	}
	// The snapshot bypassed the journal, so the overlay was dropped: the
	// gauge must say batch-only until the next rebuild derives a fresh one.
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_online_disabled 1") {
		t.Error("online_disabled gauge reads 0 on a re-bootstrapped follower serving batch-only")
	}
	if _, _, err := srv.rebuild(context.Background(), false, false); err != nil {
		t.Fatal(err)
	}
	if text := metricsText(t, srv); !strings.Contains(text, "corrfused_online_disabled 0") {
		t.Error("online_disabled gauge not lowered by the rebuild after a re-bootstrap")
	}

	writer := newServer(t, seedStore(t), walConfig(t.TempDir()))
	if err := writer.Rebootstrap(covered, strings.NewReader("")); err == nil {
		t.Fatal("Rebootstrap accepted on a non-follower server")
	}
	roCfg := corrConfig()
	roCfg.ReadOnly = true
	noWAL := newServer(t, seedStore(t), roCfg)
	if err := noWAL.Rebootstrap(covered, strings.NewReader("")); err == nil {
		t.Fatal("Rebootstrap accepted without a WAL")
	}
}

// TestReplStatusSurfaced: installing a status source activates the repl
// sections of /healthz and /v1/refuse and the corrfused_repl_* families;
// before installation the families are absent entirely.
func TestReplStatusSurfaced(t *testing.T) {
	cfg := corrConfig()
	cfg.ReadOnly = true
	cfg.LeaderURL = "http://leader.example:6060"
	srv := newServer(t, seedStore(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, raw := replHTTP(t, "GET", ts.URL+"/metrics", ""); strings.Contains(string(raw), "corrfused_repl_") {
		t.Fatal("repl metric families present before SetReplStatus")
	}

	srv.SetReplStatus(func() repl.Status {
		return repl.Status{Connected: true, AppliedSeq: 41, LeaderSeq: 44, LagRecords: 3, LagSeconds: 1.5, SegmentsShipped: 7, Diverged: true, Rebootstraps: 2}
	})

	var health struct {
		Repl struct {
			Connected       bool    `json:"connected"`
			AppliedSeq      uint64  `json:"appliedSeq"`
			LeaderSeq       uint64  `json:"leaderSeq"`
			LagRecords      uint64  `json:"lagRecords"`
			LagSeconds      float64 `json:"lagSeconds"`
			SegmentsShipped uint64  `json:"segmentsShipped"`
			Diverged        bool    `json:"diverged"`
			Rebootstraps    uint64  `json:"rebootstraps"`
			Leader          string  `json:"leader"`
		} `json:"repl"`
	}
	code, raw := replHTTP(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if !health.Repl.Connected || health.Repl.LagRecords != 3 || health.Repl.Leader != cfg.LeaderURL ||
		health.Repl.AppliedSeq != 41 || health.Repl.LeaderSeq != 44 || health.Repl.SegmentsShipped != 7 ||
		!health.Repl.Diverged || health.Repl.Rebootstraps != 2 {
		t.Fatalf("healthz repl section wrong: %+v", health.Repl)
	}

	code, raw = replHTTP(t, "POST", ts.URL+"/v1/refuse", "")
	if code != http.StatusOK || !strings.Contains(string(raw), `"repl"`) {
		t.Fatalf("refuse summary lacks the repl section (code %d): %s", code, raw)
	}

	_, raw = replHTTP(t, "GET", ts.URL+"/metrics", "")
	metrics := string(raw)
	for _, want := range []string{
		"corrfused_repl_follower_connected 1",
		"corrfused_repl_lag_records 3",
		"corrfused_repl_lag_seconds 1.5",
		"corrfused_repl_applied_seq 41",
		"corrfused_repl_leader_seq 44",
		"corrfused_repl_segments_shipped_total 7",
		"corrfused_repl_diverged 1",
		"corrfused_repl_rebootstraps_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
