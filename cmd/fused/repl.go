package main

// Replication wiring: mountLeader exposes the WAL-shipping endpoints on the
// debug/admin listener, startFollower bootstraps (if needed) and runs the
// fetch-verify-apply loop against a leader, bridging its status into the
// server's health and metric surfaces.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"corrfuse/internal/obs"
	"corrfuse/internal/repl"
	"corrfuse/internal/serve"
	"corrfuse/internal/store"
	"corrfuse/internal/wal"
)

// loggerf bridges the structured logger onto the printf-style Logf sinks
// repl and wal expect.
func loggerf(ctx context.Context, logger *obs.Logger) func(format string, args ...any) {
	return func(format string, args ...any) {
		logger.Info(ctx, fmt.Sprintf(format, args...))
	}
}

// mountLeader exposes GET /repl/wal and GET /repl/snapshot on the debug mux
// — replication is an operator surface, so it rides the debug listener, not
// the public one.
func mountLeader(ctx context.Context, dmux *http.ServeMux, srv *serve.Server, logger *obs.Logger) error {
	leader, err := repl.NewLeader(repl.LeaderOptions{
		WAL:           srv.WAL(),
		CoveredSeq:    srv.CoveredSeq,
		WriteSnapshot: srv.WriteSnapshot,
		Logf:          loggerf(ctx, logger),
	})
	if err != nil {
		return err
	}
	dmux.Handle("/repl/", leader)
	return nil
}

// bootstrapFollower, when the follower's WAL directory holds no history,
// downloads the leader's store snapshot, installs it as storePath
// (store.Install: atomic, and no older snapshot can shadow it) and pins the
// WAL to the first uncovered sequence. With existing local history it does
// nothing: the normal WAL replay resumes from it. It reports whether a
// bootstrap happened.
func bootstrapFollower(ctx context.Context, o options, logger *obs.Logger) (bool, error) {
	has, err := wal.HasSegments(o.walDir)
	if err != nil || has {
		return false, err
	}
	covered, body, err := repl.Snapshot(ctx, nil, o.follow)
	if err != nil {
		return false, fmt.Errorf("follower bootstrap: %w", err)
	}
	defer body.Close()

	if err := os.MkdirAll(filepath.Dir(o.storePath), 0o755); err != nil {
		return false, err
	}
	if err := store.Install(o.storePath, body); err != nil {
		return false, fmt.Errorf("follower bootstrap: store download: %w", err)
	}
	if err := wal.WriteBootstrapSegment(o.walDir, covered+1); err != nil {
		return false, fmt.Errorf("follower bootstrap: %w", err)
	}
	logger.Info(ctx, "follower bootstrapped from leader snapshot",
		"leader", o.follow, "coveredSeq", covered, "store", o.storePath)
	return true, nil
}

// startFollower builds the fetch loop against the leader, installs its
// status into the server's health/metrics surfaces, and runs it until ctx
// ends. A leader outage degrades to stale reads with backoff — the loop
// never takes the process down.
func startFollower(ctx context.Context, o options, srv *serve.Server, logger *obs.Logger) error {
	follower, err := repl.NewFollower(repl.FollowerOptions{
		LeaderURL: o.follow,
		WAL:       srv.WAL(),
		Apply:     srv.ApplyReplicated,
		// Automatic 410 recovery: download a fresh snapshot and rebase the
		// local WAL in place, instead of parking on "operator must wipe and
		// re-bootstrap" until someone notices the stale follower.
		Rebootstrap: func(ctx context.Context) error {
			covered, body, err := repl.Snapshot(ctx, nil, o.follow)
			if err != nil {
				return err
			}
			defer body.Close()
			return srv.Rebootstrap(covered, body)
		},
		Logf: loggerf(ctx, logger),
	})
	if err != nil {
		return err
	}
	srv.SetReplStatus(follower.Status)
	go func() {
		// Run survives every fetch/apply failure internally and returns
		// only ctx's error at shutdown — nothing to report here.
		follower.Run(ctx)
	}()
	logger.Info(ctx, "follower replication started", "leader", o.follow)

	// Give the first fetch a moment so a freshly booted follower usually
	// reports connected on its first health probe; serving does not depend
	// on it (stale reads are the degraded mode, not an error).
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	for follower.Status().AppliedSeq == 0 && !follower.Status().Connected {
		select {
		case <-waitCtx.Done():
			return nil
		case <-time.After(20 * time.Millisecond):
		}
	}
	return nil
}
