package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"corrfuse/internal/wal"
)

// Status is a follower's replication position, for health and metrics.
type Status struct {
	// Connected reports that the last leader contact succeeded. It drops
	// to false on any fetch error and recovers on the next good fetch —
	// reads stay up throughout (stale, never down).
	Connected bool
	// AppliedSeq is the last record applied locally; LeaderSeq is the
	// leader's head as of the last contact.
	AppliedSeq, LeaderSeq uint64
	// SegmentsShipped counts applied shipment batches since start.
	SegmentsShipped uint64
	// LagRecords is max(LeaderSeq-AppliedSeq, 0); LagSeconds is how long
	// the follower has continuously trailed the leader (0 when caught up
	// or before first contact).
	LagRecords uint64
	LagSeconds float64
	// Diverged reports the follower holds records the leader's durable
	// history does not (leader data loss, a wiped leader, an older-backup
	// restore). It is sticky: fetching stops and reads serve stale until an
	// operator wipes the follower's state and re-bootstraps it.
	Diverged bool
	// Rebootstraps counts automatic snapshot re-bootstraps completed after
	// the leader truncated past this follower's position (HTTP 410). A
	// nonzero value is worth alerting on: each one means this follower fell
	// behind a full retention window and re-downloaded the store.
	Rebootstraps uint64
}

// FollowerOptions configures Follower. LeaderURL, WAL and Apply are
// required.
type FollowerOptions struct {
	// LeaderURL is the leader's debug/admin base URL (scheme://host:port).
	LeaderURL string
	// WAL is the follower's own log; fetched lines are appended to it
	// verbatim (AppendShipped) after Apply succeeds, and fetching resumes
	// from its head seq.
	WAL *wal.WAL
	// Apply applies verified records to the follower's store/journal path.
	// It runs BEFORE the local log append, mirroring the leader's
	// store-write-before-WAL-append ordering so log truncation can never
	// outrun the store.
	Apply func(recs []wal.Record) error
	// Client is the HTTP client (default http.DefaultClient; give it no
	// global timeout — long-polls hold connections open deliberately).
	Client *http.Client
	// Rebootstrap, when non-nil, is invoked after the leader answers 410
	// (its retained history no longer reaches our next record): the hook
	// must download a fresh leader snapshot, apply it to the local store,
	// and Rebase the local WAL to the first uncovered sequence — after
	// which fetching resumes automatically. Nil keeps 410 an operator
	// problem: the follower serves stale reads and retries forever.
	//
	// Divergence (the follower AHEAD of the leader's durable history) is
	// deliberately NOT auto-healed by this hook: a diverged follower holds
	// acknowledged records the leader lost, and silently discarding them
	// is a data-loss decision only an operator should make.
	Rebootstrap func(ctx context.Context) error
	// Logger receives operational log lines; nil silences them.
	Logger *slog.Logger
	// FetchWait is the long-poll wait requested per fetch (default 10s).
	FetchWait time.Duration
	// MinBackoff..MaxBackoff bound the reconnect backoff (defaults 500ms
	// and 8s, doubling per consecutive failure).
	MinBackoff, MaxBackoff time.Duration
}

// Follower runs the fetch-verify-apply loop against a leader.
type Follower struct {
	opts FollowerOptions
	base string

	mu       sync.Mutex
	st       Status
	lagSince time.Time // zero when caught up
	lastErr  string
	diverged bool // sticky: leader's durable history fell below ours
}

// NewFollower validates options and builds a follower (Run starts it).
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.LeaderURL == "" || opts.WAL == nil || opts.Apply == nil {
		return nil, errors.New("repl: FollowerOptions.LeaderURL, WAL and Apply are required")
	}
	u, err := url.Parse(opts.LeaderURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("repl: leader URL %q is not absolute", opts.LeaderURL)
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.FetchWait <= 0 {
		opts.FetchWait = 10 * time.Second
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 500 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 8 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	return &Follower{opts: opts, base: strings.TrimRight(opts.LeaderURL, "/")}, nil
}

// Status returns the current replication position. LagSeconds is computed
// at call time from how long the follower has continuously trailed.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	if !f.lagSince.IsZero() {
		st.LagSeconds = time.Since(f.lagSince).Seconds()
	}
	return st
}

// Run fetches, verifies, applies and re-logs shipments until ctx ends. All
// deadlines flow from ctx — a follower shutting down abandons its in-flight
// long-poll immediately. Run only ever returns ctx's error: every fetch or
// apply failure is survived with backoff (a leader restart means stale
// reads, never a follower crash).
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.opts.MinBackoff
	// The first fetch after start or after an error is a zero-wait probe, so
	// connection state (and any waiting health check) updates immediately
	// instead of after a full long-poll window.
	wait := time.Duration(0)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, err := f.fetchOnce(ctx, wait)
		switch {
		case err == nil:
			backoff = f.opts.MinBackoff
			wait = f.opts.FetchWait
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			if IsTruncated(err) && f.opts.Rebootstrap != nil {
				f.opts.Logger.Warn("repl: follower: leader truncated our position; re-bootstrapping from a fresh snapshot")
				if rerr := f.opts.Rebootstrap(ctx); rerr == nil {
					f.noteRebootstrapped()
					f.opts.Logger.Info("repl: follower: re-bootstrap complete", "resumeSeq", f.opts.WAL.Seq()+1)
					backoff = f.opts.MinBackoff
					wait = 0
					continue
				} else if ctx.Err() != nil {
					return ctx.Err()
				} else {
					// Keep IsTruncated true so the next round retries the
					// re-bootstrap instead of fetching into another 410.
					err = fmt.Errorf("%w (automatic re-bootstrap failed: %v)", errTruncated, rerr)
				}
			}
			wait = 0
			f.noteError(err)
			f.opts.Logger.Warn("repl: follower: fetch failed", "retryIn", backoff, "err", err)
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
			if backoff *= 2; backoff > f.opts.MaxBackoff {
				backoff = f.opts.MaxBackoff
			}
		}
	}
}

// errTruncated marks a 410: the leader no longer has our next record.
var errTruncated = errors.New("repl: leader truncated our position; wipe the follower state and re-bootstrap")

// errDiverged marks a leader whose durable history ends BELOW our applied
// position: we hold records the leader never made durable — leader data
// loss, a wiped leader, or a restore from an older backup. Healthy shipping
// can never produce this (ReadFrom caps at the leader's durability
// watermark, which only advances), so treating the leader's caught-up answer
// as healthy would report connected with lag 0 while the replicas have
// silently forked. The condition is sticky: the leader may re-append past
// our position with different data, making later responses look normal, so
// once seen the follower refuses to fetch until an operator wipes and
// re-bootstraps it (reads stay up, stale, like a truncation).
var errDiverged = errors.New("repl: follower is ahead of the leader's durable history (diverged replicas); wipe the follower state and re-bootstrap")

// fetchOnce performs one fetch (long-polling up to wait) and applies its
// shipment. It returns the number of records applied (0 on a caught-up 204).
func (f *Follower) fetchOnce(ctx context.Context, wait time.Duration) (int, error) {
	f.mu.Lock()
	diverged := f.st.Diverged
	f.mu.Unlock()
	if diverged {
		// Sticky: the leader may since have re-appended past our position
		// with different data, making fresh responses look healthy again.
		return 0, errDiverged
	}
	from := f.opts.WAL.Seq() + 1
	u := fmt.Sprintf("%s/repl/wal?from=%d&wait=%g", f.base, from, wait.Seconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		// Drain-and-close of an exhausted response body; nothing actionable.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()

	switch resp.StatusCode {
	case http.StatusNoContent:
		// A caught-up answer must actually cover our position: every local
		// record came from the leader's durable history, and the durability
		// watermark only advances, so a leader whose durable (head as a
		// fallback) seq sits BELOW our applied seq has lost records we hold.
		// Reporting connected/lag-0 here would hide a silent fork.
		if limit, ok := leaderLimit(resp); ok && limit < from-1 {
			return 0, f.noteDiverged(limit, from-1)
		}
		f.noteCaughtUp(headSeq(resp), from-1)
		return 0, nil
	case http.StatusGone:
		// Deliberately fatal-looking but survived by Run's backoff: the
		// operator must wipe and re-bootstrap; until then we serve stale.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		f.opts.Logger.Warn("repl: follower: leader returned 410", "from", from, "body", strings.TrimSpace(string(body)))
		return 0, errTruncated
	case http.StatusOK:
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("repl: leader answered %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}

	first, err := headerSeq(resp, HdrFirst)
	if err != nil {
		return 0, err
	}
	last, err := headerSeq(resp, HdrLast)
	if err != nil {
		return 0, err
	}
	if first != from {
		return 0, fmt.Errorf("repl: leader shipped from seq %d, asked for %d", first, from)
	}
	lines, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("repl: shipment body: %w", err)
	}
	// Follower-side re-verification: every CRC envelope, contiguous seqs.
	raws, recs, err := wal.SplitShipment(lines, first)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 || recs[len(recs)-1].Seq != last {
		return 0, fmt.Errorf("repl: shipment body ends at wrong seq (want %d)", last)
	}

	// Store before log, like the leader's ingest path: if we crash between
	// the two, the records are refetched and re-applied idempotently.
	if err := f.opts.Apply(recs); err != nil {
		return 0, fmt.Errorf("repl: apply: %w", err)
	}
	for _, raw := range raws {
		if _, err := f.opts.WAL.AppendShipped(raw); err != nil {
			return 0, err
		}
	}
	f.noteApplied(headSeq(resp), last)
	return len(recs), nil
}

// headerSeq parses a required decimal sequence header.
func headerSeq(resp *http.Response, name string) (uint64, error) {
	v, err := strconv.ParseUint(resp.Header.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: leader response missing/invalid %s header", name)
	}
	return v, nil
}

// headSeq reads the optional leader-head header (0 when absent).
func headSeq(resp *http.Response) uint64 {
	v, _ := strconv.ParseUint(resp.Header.Get(HdrHeadSeq), 10, 64)
	return v
}

// leaderLimit reads the leader's durability watermark from a response,
// falling back to the head seq, and reports whether either header was
// present — absence (a proxy error page, an old leader) must not read as
// seq 0 and trip a false divergence.
func leaderLimit(resp *http.Response) (uint64, bool) {
	for _, name := range []string{HdrDurableSeq, HdrHeadSeq} {
		if s := resp.Header.Get(name); s != "" {
			if v, err := strconv.ParseUint(s, 10, 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func (f *Follower) noteCaughtUp(leaderSeq, applied uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.Connected = true
	f.st.AppliedSeq = applied
	if leaderSeq > f.st.LeaderSeq {
		f.st.LeaderSeq = leaderSeq
	}
	f.updateLagLocked()
}

func (f *Follower) noteApplied(leaderSeq, applied uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.Connected = true
	f.st.SegmentsShipped++
	f.st.AppliedSeq = applied
	if leaderSeq > f.st.LeaderSeq {
		f.st.LeaderSeq = leaderSeq
	}
	f.updateLagLocked()
}

// noteDiverged latches the sticky diverged state and returns errDiverged
// (Run's error path then marks the link down and keeps serving stale reads).
func (f *Follower) noteDiverged(leaderLimit, applied uint64) error {
	f.opts.Logger.Error("repl: follower: DIVERGED: refusing to fetch; wipe this follower's state and re-bootstrap",
		"appliedSeq", applied, "leaderDurableSeq", leaderLimit)
	f.mu.Lock()
	f.st.Diverged = true
	f.mu.Unlock()
	return errDiverged
}

// noteRebootstrapped records a completed automatic re-bootstrap. Connected
// stays false until the next fetch succeeds against the rebased position.
func (f *Follower) noteRebootstrapped() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.Rebootstraps++
}

func (f *Follower) noteError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.Connected = false
	f.lastErr = err.Error()
	if f.lagSince.IsZero() {
		f.lagSince = time.Now()
	}
}

// updateLagLocked recomputes the record lag and the trailing-since stamp.
// Callers hold f.mu.
func (f *Follower) updateLagLocked() {
	if f.st.LeaderSeq > f.st.AppliedSeq {
		f.st.LagRecords = f.st.LeaderSeq - f.st.AppliedSeq
		if f.lagSince.IsZero() {
			f.lagSince = time.Now()
		}
	} else {
		f.st.LagRecords = 0
		f.lagSince = time.Time{}
		f.st.LagSeconds = 0
	}
}

// Snapshot downloads the leader's store stream for bootstrap, returning the
// covered seq (the follower's log must start at covered+1) and the body.
// The caller owns closing the body and verifying the store parses.
func Snapshot(ctx context.Context, client *http.Client, leaderURL string) (covered uint64, body io.ReadCloser, err error) {
	if client == nil {
		client = http.DefaultClient
	}
	u := strings.TrimRight(leaderURL, "/") + "/repl/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		//lint:ignore errswallow error path already carries the status; close is best-effort
		resp.Body.Close()
		return 0, nil, fmt.Errorf("repl: snapshot: leader answered %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	covered, err = headerSeq(resp, HdrCoveredSeq)
	if err != nil {
		//lint:ignore errswallow error path; close is best-effort
		resp.Body.Close()
		return 0, nil, err
	}
	return covered, resp.Body, nil
}

// IsTruncated reports whether err is the leader-truncated-our-history
// condition (HTTP 410) that requires an operator re-bootstrap.
func IsTruncated(err error) bool {
	return errors.Is(err, errTruncated)
}
