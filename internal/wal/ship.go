package wal

// Segment shipping: the replication surface of the log. A leader reads
// verbatim CRC-enveloped lines with ReadFrom and ships them to followers,
// which re-verify every envelope and append the lines to their own log with
// AppendShipped — byte-identical records, leader-assigned sequence numbers,
// end-to-end checksummed. WriteBootstrapSegment pins a freshly-bootstrapped
// follower's log to the first sequence its snapshot does not cover.

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"corrfuse/internal/codec"
)

// TruncatedError is returned by ReadFrom when the requested position
// predates the earliest retained record: the history was truncated away and
// the caller must re-bootstrap from a snapshot instead of replaying the log.
type TruncatedError struct {
	// Earliest is the first sequence number still readable from the log.
	Earliest uint64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("wal: requested history truncated; earliest retained seq is %d", e.Earliest)
}

// Shipment is one batch of verbatim log lines read for replication.
type Shipment struct {
	// First and Last bound the sequence numbers of Lines (First > Last:
	// the batch is empty — the reader is caught up to the durable head).
	First, Last uint64
	// HeadSeq is the last assigned sequence number at read time; Last can
	// trail it by records not yet covered by an fsync.
	HeadSeq uint64
	// DurableSeq is the durability watermark at read time; ReadFrom never
	// ships past it.
	DurableSeq uint64
	// Lines holds the shipped records exactly as they are on disk: one
	// CRC-enveloped JSON document per newline-terminated line.
	Lines []byte
}

// ReadFrom reads verbatim log lines for records sequenced from (1 if 0) and
// up, capped at maxBytes (a default is applied when <= 0) and at the
// durability watermark — a record no fsync covers yet must not reach a
// follower, or a leader crash could reuse its sequence number for different
// data and fork the replicas. The CRC envelopes are passed through
// untouched so receivers re-verify them end to end.
//
// An empty Shipment (First > Last) means the reader is caught up; a
// *TruncatedError means the requested history is gone and the caller must
// re-bootstrap from a snapshot.
func (w *WAL) ReadFrom(from uint64, maxBytes int64) (Shipment, error) {
	if from == 0 {
		from = 1
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return Shipment{}, ErrClosed
	}
	head := w.seq
	w.dmu.Lock()
	durable := w.durable
	w.dmu.Unlock()
	sh := Shipment{First: from, Last: from - 1, HeadSeq: head, DurableSeq: durable}
	if from > durable {
		w.mu.Unlock()
		return sh, nil
	}
	// Earliest retained record: the first non-empty closed segment's first
	// sequence, else the open segment's (empty markers hold no records).
	earliest := uint64(0)
	for _, sg := range w.segs {
		if sg.first <= sg.last {
			earliest = sg.first
			break
		}
	}
	if earliest == 0 && head >= w.segFirst {
		earliest = w.segFirst
	}
	if earliest == 0 || from < earliest {
		w.mu.Unlock()
		return Shipment{}, &TruncatedError{Earliest: earliest}
	}
	// Collect the files intersecting [from, durable]. Records at or below
	// the durable watermark are fully flushed (fsync implies flush), so the
	// open segment's file holds every byte we will read — after one buffer
	// flush covering anything queued since the last sync pass.
	var paths []string
	for _, sg := range w.segs {
		if sg.first <= sg.last && sg.last >= from && sg.first <= durable {
			paths = append(paths, sg.path)
		}
	}
	if head >= w.segFirst && durable >= w.segFirst {
		if err := w.bw.Flush(); err != nil {
			w.mu.Unlock()
			return Shipment{}, fmt.Errorf("wal: %w", err)
		}
		paths = append(paths, w.segmentPath(w.segFirst))
	}
	w.mu.Unlock()

	// Scan outside the lock: the files only grow or get removed by a
	// concurrent truncation (which surfaces as an open/continuity error the
	// caller retries).
	var buf bytes.Buffer
	next := from
	for _, p := range paths {
		done, err := shipLines(p, &next, durable, maxBytes, &buf)
		if err != nil {
			return Shipment{}, err
		}
		if done {
			break
		}
	}
	if next == from {
		// from is within the retained, durable range yet nothing shipped:
		// the segment holding it vanished or failed mid-scan.
		return Shipment{}, fmt.Errorf("wal: record %d unreadable (segment truncated or corrupt mid-ship)", from)
	}
	sh.Last = next - 1
	sh.Lines = buf.Bytes()
	return sh, nil
}

// shipLines appends path's verbatim lines for records sequenced [*next,
// limit] to buf, advancing *next per shipped record, until the file or the
// budget is exhausted. done reports that the batch is complete (limit or
// maxBytes reached).
func shipLines(path string, next *uint64, limit uint64, maxBytes int64, buf *bytes.Buffer) (done bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("wal: ship: %w", err)
	}
	defer f.Close()
	sc := newLineScanner("ship "+path, f, *next)
	sc.skipBelow = true // the range may start mid-segment
	sc.verify = true    // lines ship verbatim: only their Seq is read
	for *next <= limit {
		raw, _, _, why := sc.scan()
		if why == scanEOF || why == scanTorn {
			// A newline-less tail is an append in flight past the durable
			// watermark. Every record <= limit is complete, so hitting it
			// means this file is exhausted for our range.
			return false, nil
		}
		if why != scanRecord {
			return false, sc.err
		}
		buf.Write(raw)
		buf.WriteByte('\n')
		*next = sc.next
		if int64(buf.Len()) >= maxBytes {
			return true, nil
		}
	}
	return true, nil
}

// AppendShipped appends one leader-shipped log line verbatim: the CRC
// envelope is re-verified, and the record's sequence number must continue
// the local log exactly (Seq()+1) — a gap, duplicate, blank or corrupt
// shipped line is rejected, so a follower can never write a log its own
// replay would refuse to open. raw is one line WITHOUT its newline
// terminator. Rotation applies as for Append.
//
// Durability is deliberately not waited on: a follower that crashes simply
// refetches the unsynced suffix from the leader, so its exposure is a
// refetch, never data loss — the leader already holds every shipped record
// durably.
func (w *WAL) AppendShipped(raw []byte) (uint64, error) {
	if len(bytes.TrimSpace(raw)) == 0 {
		return 0, errors.New("wal: shipped line is blank: rejecting corrupt shipment")
	}
	seq, err := decodeLine(raw, nil, nil)
	if err != nil {
		return 0, fmt.Errorf("wal: shipped line: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if seq != w.seq+1 {
		return 0, fmt.Errorf("wal: shipped record seq %d does not continue the log at %d", seq, w.seq+1)
	}
	if w.segBytes >= w.opts.SegmentBytes && w.seq >= w.segFirst {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	if _, err := w.bw.Write(raw); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if err := w.bw.WriteByte('\n'); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	w.seq = seq
	w.segBytes += int64(len(raw)) + 1
	return seq, nil
}

// SplitShipment splits a Shipment's Lines back into individual raw lines
// (newline terminators stripped), verifying each envelope and that the
// sequence numbers run contiguously from first — the follower-side
// re-verification of everything the leader passed through verbatim. A blank
// line anywhere in a shipment is corruption and rejects the whole batch.
func SplitShipment(lines []byte, first uint64) (raws [][]byte, recs []Record, err error) {
	sc := newLineScanner("shipment", bytes.NewReader(lines), first)
	sc.in = new(codec.Interner)
	for {
		raw, rec, _, why := sc.scan()
		if why == scanEOF {
			return raws, recs, nil
		}
		if why != scanRecord {
			return nil, nil, sc.err // scanTorn: the transfer was truncated mid-line
		}
		raws = append(raws, append([]byte(nil), raw...)) // raw is valid only until the next scan
		recs = append(recs, rec)
	}
}

// HasSegments reports whether dir holds any valid segment files. A missing
// directory has none. Bootstrap decisions key off this: a follower with any
// local history resumes from it instead of re-snapshotting.
func HasSegments(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && isSegmentName(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

// WriteBootstrapSegment creates an empty segment pinning a fresh log's next
// sequence number to first: a follower bootstrapped from a snapshot
// covering sequences below first starts its local log exactly there, so the
// first shipped record continues it without a gap. The file is written
// under a .tmp name and renamed into place (directory fsynced), so a crash
// mid-bootstrap leaves only a loudly-ignored leftover. The directory must
// not already contain segments.
func WriteBootstrapSegment(dir string, first uint64) error {
	if first == 0 {
		return errors.New("wal: bootstrap sequence must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && isSegmentName(e.Name()) {
			return fmt.Errorf("wal: bootstrap refused: %s already holds segment %s", dir, e.Name())
		}
	}
	path := segmentFile(dir, first)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		// Best-effort removal of the orphaned temp file; the rename error is returned.
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(dir)
}
