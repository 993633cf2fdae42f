// Package wal is a segmented, append-only write-ahead log of observations:
// the durability substrate under the fusion service's ingest path. Every
// acknowledged claim is appended as a CRC-protected JSONL record with a
// monotone sequence number before the acknowledgment is sent, so a crash
// between two snapshot saves loses nothing that was acknowledged.
//
// Each record is one line:
//
//	{"crc":1779265981,"rec":{"seq":42,"source":"s1","subject":"x","predicate":"p","object":"o","label":"true"}}
//
// "rec" is the Record as json.Marshal writes it (label omitted when empty,
// <, > and & escaped as \u003c, \u003e and \u0026), and "crc" is the IEEE
// CRC32 of exactly those bytes, from the opening brace of "rec" to its
// closing brace; the envelope around them is not covered. The newline ends
// the line, so a line without one is torn. The hand-rolled codec in line.go
// writes these bytes and reads them with encoding/json's rules, so logs
// written before it replaced encoding/json replay unchanged.
//
// Durability is group-committed: concurrent writers append to a shared
// buffer under a short mutex and then wait on a commit ticket; a single
// syncer goroutine flushes and fsyncs once for every batch of waiters and
// releases them all, so the per-write fsync cost amortizes across
// concurrent writers instead of serializing them (one fsync per write).
//
// The log is a directory of JSONL segments (wal-<firstseq>.jsonl). Appends
// rotate to a fresh segment past a size threshold, and TruncateThrough
// deletes the segments a newer store snapshot fully covers, so the live log
// tracks the un-snapshotted suffix of the write stream, not its history.
// Open replays the surviving records in order, tolerating (and trimming) a
// torn final record from a crash mid-append; corruption anywhere else is an
// error, never a silent gap.
package wal

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corrfuse/internal/codec"
)

// Sync policies. Always is the durable default: Commit returns only after
// an fsync covers the committed sequence number (group-committed across
// concurrent writers). Interval flushes each commit to the OS and fsyncs on
// a timer, bounding loss to one interval of acknowledged writes on a power
// cut (a process crash alone loses nothing the OS received). Off never
// fsyncs outside rotation and Close; the OS decides when bytes reach disk.
const (
	SyncAlways   = "always"
	SyncInterval = "interval"
	SyncOff      = "off"
)

// Defaults for Options zero values.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultSyncInterval = 100 * time.Millisecond
)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// Record is one acknowledged observation. Seq is assigned by Append and is
// strictly monotone across the life of the log, surviving restarts.
type Record struct {
	Seq       uint64 `json:"seq"`
	Source    string `json:"source"`
	Subject   string `json:"subject"`
	Predicate string `json:"predicate"`
	Object    string `json:"object"`
	Label     string `json:"label,omitempty"`
}

// Options configures a WAL. The zero value means SyncAlways, a 4 MiB
// segment threshold and a 100 ms fsync interval (for SyncInterval).
type Options struct {
	// Sync is the fsync policy: SyncAlways (default), SyncInterval, SyncOff.
	Sync string
	// SyncInterval is the fsync period under SyncInterval.
	SyncInterval time.Duration
	// SegmentBytes rotates the live segment once it grows past this size.
	SegmentBytes int64
	// OnCommitWait, when non-nil, receives the wall time each Commit call
	// spent making its sequence durable — the group-commit wait under
	// SyncAlways (queueing for a leader's fsync included), the buffer
	// flush under the other policies. It is the observability hook for
	// attributing ingest tail latency to fsync stalls; implementations
	// must be cheap and non-blocking (e.g. a histogram observation).
	OnCommitWait func(time.Duration)

	// RetainSegments keeps up to this many newest fully-covered segments
	// alive across TruncateThrough calls instead of deleting them all.
	// Retained segments cost idempotent replay on the next Open and disk
	// space, and buy replication history: a follower that reconnects after
	// missing a truncation can still fetch the covered suffix via ReadFrom
	// instead of needing a full snapshot re-bootstrap. 0 (the default)
	// truncates everything a snapshot covers, the pre-replication behavior.
	RetainSegments int

	// Logger receives operational log lines (ignored leftover files found
	// by Open, and nothing on the hot path). Nil silences them.
	Logger *slog.Logger
}

// Stats is a point-in-time snapshot of the log's state.
type Stats struct {
	// Seq is the last assigned sequence number (0 before any append).
	Seq uint64
	// DurableSeq is the highest sequence number an fsync is known to
	// cover. Under SyncInterval/SyncOff it trails Seq by design.
	DurableSeq uint64
	// Segments is the number of live segment files, the open one included.
	Segments int
	// Bytes is the total size of the live segment files.
	Bytes int64
	// Fsyncs counts fsync calls on segment data (group commits, interval
	// ticks, rotations).
	Fsyncs uint64
	// LastGroupCommit is the number of records the most recent group
	// commit fsync made durable in one call.
	LastGroupCommit uint64
	// Recovered is the number of records Open replayed.
	Recovered int
	// IgnoredFiles is the number of non-segment files Open found (and
	// loudly ignored) in the log directory — typically .tmp leftovers from
	// a segment creation or download that crashed mid-write.
	IgnoredFiles int
}

// segment is a closed (no longer written) segment file.
type segment struct {
	path        string
	first, last uint64 // sequence numbers it contains (first > last: empty)
	bytes       int64
}

// WAL is an open write-ahead log. It is safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	// mu guards the write state: the open segment, its buffered writer,
	// and the sequence counter. Appends hold it only for an in-memory
	// buffer write; fsyncs happen outside it.
	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seq      uint64 // last assigned
	segFirst uint64 // seq of the open segment's first record (seq+1 at creation)
	segBytes int64
	segs     []segment // closed segments, ascending
	closed   bool
	scratch  []byte // Append's encoded record and line

	// dmu guards the durability state commit waiters block on.
	dmu       sync.Mutex
	dcond     *sync.Cond
	durable   uint64
	syncing   bool  // a group-commit leader's fsync is in flight
	syncErr   error // sticky: a failed fsync poisons the log (fail-stop)
	dclosed   bool
	fsyncs    atomic.Uint64
	lastGroup atomic.Uint64

	quit       chan struct{}
	syncerDone chan struct{}

	closeOnce sync.Once
	closeErr  error

	recovered    int
	ignoredFiles int

	// syncFile is the fsync implementation, injectable by tests (e.g. to
	// slow it down and prove commits coalesce).
	syncFile func(*os.File) error
}

// Open opens (creating if necessary) the log directory, replays every
// surviving record in order and returns them along with a WAL positioned to
// append after the last one. A torn final record — a crash mid-append — is
// trimmed from the last segment and replay stops there; a corrupt record
// anywhere earlier is an error.
func Open(dir string, opts Options) (*WAL, []Record, error) {
	switch opts.Sync {
	case "":
		opts.Sync = SyncAlways
	case SyncAlways, SyncInterval, SyncOff:
	default:
		return nil, nil, fmt.Errorf("wal: unknown sync policy %q", opts.Sync)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{
		dir:        dir,
		opts:       opts,
		quit:       make(chan struct{}),
		syncerDone: make(chan struct{}),
		syncFile:   (*os.File).Sync,
	}
	w.dcond = sync.NewCond(&w.dmu)

	// Strict directory scan instead of a glob: only exact segment names
	// (wal-<digits>.jsonl, as segmentPath writes them) replay. Anything
	// else — .tmp leftovers from a segment creation or download that
	// crashed mid-write, stray files — is ignored LOUDLY (logged and
	// counted in Stats.IgnoredFiles), never replayed as garbage and never
	// allowed to wedge recovery.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && isSegmentName(name) {
			paths = append(paths, filepath.Join(dir, name))
			continue
		}
		w.ignoredFiles++
		w.opts.Logger.Warn("wal: ignoring non-segment entry in log directory (leftover from an interrupted write?)", "entry", name)
	}
	sort.Strings(paths) // zero-padded first-seq names sort chronologically

	var (
		records []Record
		in      codec.Interner // one table for the whole replay
	)
	next := uint64(0) // expected seq of the next record; 0 = any (first retained)
	for i, path := range paths {
		last := i == len(paths)-1
		before := len(records)
		var good, size int64
		records, good, size, err = readSegment(path, next, last, &in, records)
		if err != nil {
			return nil, nil, err
		}
		recs := records[before:]
		if last && good < size {
			// Torn tail: trim the file to the last good record boundary so
			// a future replay never walks past garbage.
			if err := os.Truncate(path, good); err != nil {
				return nil, nil, fmt.Errorf("wal: trim torn tail of %s: %w", path, err)
			}
			size = good
		}
		sg := segment{path: path, bytes: size}
		if len(recs) > 0 {
			sg.first, sg.last = recs[0].Seq, recs[len(recs)-1].Seq
			next = sg.last + 1
		} else {
			// An empty segment (fresh, or fully torn-trimmed) still pins
			// the sequence: its name is the seq of the first record it
			// would hold. Guessing instead (e.g. restarting at 1) would
			// reset the counter after a truncate-then-reboot and reuse
			// sequence numbers, eventually wedging recovery on a bogus
			// gap error.
			first, err := parseSegmentFirst(path)
			if err != nil {
				return nil, nil, err
			}
			if next != 0 && first != next {
				return nil, nil, fmt.Errorf("wal: empty segment %s does not continue the log at seq %d", path, next)
			}
			next = first
			sg.first, sg.last = first, first-1
		}
		w.segs = append(w.segs, sg)
	}
	if next > 0 {
		w.seq = next - 1
	}
	w.recovered = len(records)
	// Everything replayed is on disk already.
	w.durable = w.seq

	// Continue appending to the last segment if there is one (it was
	// trimmed to a clean record boundary above); otherwise start fresh.
	if n := len(w.segs); n > 0 {
		sg := w.segs[n-1]
		w.segs = w.segs[:n-1]
		f, err := os.OpenFile(sg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopen %s: %w", sg.path, err)
		}
		w.f = f
		w.segBytes = sg.bytes
		w.segFirst = sg.first
	} else {
		if err := w.createSegment(); err != nil {
			return nil, nil, err
		}
	}
	w.bw = bufio.NewWriter(w.f)

	// Only the interval policy needs a background goroutine; under
	// SyncAlways the committing writers themselves run the group commits
	// (leader/follower), and SyncOff never fsyncs outside rotation/Close.
	if opts.Sync == SyncInterval {
		go w.syncer()
	} else {
		close(w.syncerDone)
	}
	return w, records, nil
}

// scanStop says how a lineScanner.scan call ended.
type scanStop int

const (
	scanRecord scanStop = iota // not a stop: scan yielded a record
	scanEOF                    // the source ended on a line boundary
	scanTorn                   // the source ended mid-line: bytes without their newline terminator
	scanBlank                  // a blank line
	scanBad                    // a line that failed decodeLine (CRC, JSON, missing sequence)
	scanSeq                    // a record out of sequence
	scanIO                     // the source failed
)

// lineScanner is the one reader of log lines — segment replay, leader
// shipping and follower verification all run it: split on the newline
// terminator, refuse a blank line, decodeLine (CRC + JSON), then sequence
// contiguity. Which stops a caller forgives is its policy (a torn tail only
// in the last segment, never in a shipment); finding and naming them is not.
// It streams — O(line) memory, not O(segment), which matters once
// replication retains more segments and a follower bootstraps through the
// whole log.
//
// A record is good only if its newline terminator made it to the source — a
// newline-less tail is torn even when the bytes so far parse, because
// appending to it would glue two records into one corrupt line. A blank
// line is corruption, not a tear: the writer emits a record's newline as the
// LAST byte of its line, so no crash point can produce a lone newline with
// data after it.
type lineScanner struct {
	what string // names the source in errors: a segment path or "shipment"
	br   *bufio.Reader
	long []byte // a line longer than br's buffer, gathered
	// next is the sequence number the next record must carry, advanced past
	// every yielded record; 0 accepts any.
	next uint64
	// skipBelow makes records sequenced below next skipped instead of out of
	// sequence (shipping starts mid-segment).
	skipBelow bool
	// in interns the decoded records' strings. With verify set, scan checks
	// each line without building its record and yields just the Seq.
	in     *codec.Interner
	verify bool

	line int   // 1-based number of the last line read
	err  error // the loud error for the last stop, for callers that do not forgive it
}

func newLineScanner(what string, r io.Reader, next uint64) *lineScanner {
	return &lineScanner{what: what, br: bufio.NewReaderSize(r, 64<<10), next: next}
}

// readLine returns the next line with its terminator, or what is left of
// the source before io.EOF, as bufio.Reader.ReadBytes does — but without
// its copy: the line is valid until the next call.
func (sc *lineScanner) readLine() ([]byte, error) {
	b, err := sc.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return b, err
	}
	sc.long = append(sc.long[:0], b...)
	for err == bufio.ErrBufferFull {
		b, err = sc.br.ReadSlice('\n')
		sc.long = append(sc.long, b...)
	}
	return sc.long, err
}

// scan yields the next record — its line without the terminator (valid as
// readLine's), the decoded record, the line's length in the source — or
// stops at a line of length lineLen for the reason it returns, leaving the
// error for it in sc.err.
func (sc *lineScanner) scan() (raw []byte, rec Record, lineLen int64, why scanStop) {
	for {
		b, err := sc.readLine()
		lineLen = int64(len(b))
		switch {
		case err == io.EOF && len(b) == 0:
			return nil, rec, 0, scanEOF
		case err == io.EOF:
			sc.err = fmt.Errorf("wal: %s: ends mid-line: record without newline terminator", sc.what)
			return nil, rec, lineLen, scanTorn
		case err != nil:
			sc.err = fmt.Errorf("wal: %s: %w", sc.what, err)
			return nil, rec, lineLen, scanIO
		}
		sc.line++
		raw = b[:len(b)-1]
		if len(bytes.TrimSpace(raw)) == 0 {
			sc.err = fmt.Errorf("wal: %s line %d: blank line (corruption, not a torn tail)", sc.what, sc.line)
			return nil, rec, lineLen, scanBlank
		}
		dst := &rec
		if sc.verify {
			dst = nil
		}
		if rec.Seq, err = decodeLine(raw, sc.in, dst); err != nil {
			sc.err = fmt.Errorf("wal: %s line %d: %w", sc.what, sc.line, err)
			return nil, rec, lineLen, scanBad
		}
		if sc.skipBelow && rec.Seq < sc.next {
			continue
		}
		if sc.next != 0 && rec.Seq != sc.next {
			sc.err = fmt.Errorf("wal: %s line %d: sequence %d, want %d (gap or reordering)", sc.what, sc.line, rec.Seq, sc.next)
			return nil, rec, lineLen, scanSeq
		}
		sc.next = rec.Seq + 1
		return raw, rec, lineLen, scanRecord
	}
}

// readSegment replays one segment file, appending its records to recs and
// interning their strings through in. next is the expected sequence number
// of its first record (0 = accept any); last marks the final segment, whose
// tail may be torn. It returns the extended recs, the byte offset just past
// the segment's last good record, and the file size.
//
// Only the last segment forgives anything: a torn or undecodable tail is a
// crash mid-append (everything after the tear was written later and is
// equally suspect), and a blank line is trimmed like any other tear when —
// and only when — it IS the file's final content. Everywhere else each stop
// fails loudly.
func readSegment(path string, next uint64, last bool, in *codec.Interner, recs []Record) (_ []Record, good, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	size = fi.Size()
	sc := newLineScanner(path, f, next)
	sc.in = in
	for {
		_, rec, lineLen, why := sc.scan()
		if why != scanRecord {
			tornTail := why == scanTorn || why == scanBad || why == scanBlank && good+lineLen == size
			if why == scanEOF || last && tornTail {
				return recs, good, size, nil
			}
			return nil, 0, 0, sc.err
		}
		recs = append(recs, rec)
		good += lineLen
	}
}

// segmentPath names a segment by the first sequence number it will hold.
func (w *WAL) segmentPath(first uint64) string {
	return segmentFile(w.dir, first)
}

// segmentFile is segmentPath without a WAL: the canonical segment name for
// a directory, shared with WriteBootstrapSegment.
func segmentFile(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.jsonl", first))
}

// isSegmentName reports whether name is exactly a segment file name as
// segmentFile produces them: wal-<digits>.jsonl, nothing more. Open replays
// only matching files; everything else in the directory is ignored loudly.
func isSegmentName(name string) bool {
	const pre, suf = "wal-", ".jsonl"
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return false
	}
	mid := name[len(pre) : len(name)-len(suf)]
	if mid == "" {
		return false
	}
	for i := 0; i < len(mid); i++ {
		if mid[i] < '0' || mid[i] > '9' {
			return false
		}
	}
	return true
}

// parseSegmentFirst recovers the first sequence number a segment was named
// for (the inverse of segmentPath).
func parseSegmentFirst(path string) (uint64, error) {
	name := filepath.Base(path)
	var first uint64
	if _, err := fmt.Sscanf(name, "wal-%d.jsonl", &first); err != nil || first == 0 {
		return 0, fmt.Errorf("wal: segment %s has no parseable sequence in its name", path)
	}
	return first, nil
}

// createSegment opens a fresh segment for the next record and fsyncs the
// directory so the new name survives a crash. The file is created under a
// .tmp name and renamed into place: a crash mid-creation then leaves a
// leftover Open ignores loudly instead of a file the segment scan would
// pick up — the same discipline follower segment downloads use, so a
// partially-written file can never enter the replayed set. Callers hold mu
// (or are single-threaded in Open).
func (w *WAL) createSegment() error {
	first := w.seq + 1
	path := w.segmentPath(first)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		//lint:ignore errswallow cleanup on the error path; the rename error is returned
		f.Close()
		// Best-effort removal of the orphaned temp file.
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		//lint:ignore errswallow cleanup on the error path; the directory-fsync error is returned
		f.Close()
		return err
	}
	w.f = f
	w.segFirst = first
	w.segBytes = 0
	return nil
}

// rotate closes the open segment (flushed and fsynced, so every record in
// it counts as durable from here on) and starts a new one. Callers hold mu.
//
// The fsync deliberately runs under mu, stalling concurrent appends once
// per SegmentBytes: the single `durable` watermark is only sound if every
// fsync-covered sequence range is contiguous, which the synchronous
// old-segment fsync guarantees. Retiring the file asynchronously would
// need a per-segment durability frontier to avoid acknowledging records
// whose file has not been synced yet — complexity not worth a bounded,
// rare stall.
func (w *WAL) rotate() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("wal: rotate flush: %w", err)
	}
	if err := w.syncFile(w.f); err != nil {
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	w.fsyncs.Add(1)
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	w.segs = append(w.segs, segment{path: w.segmentPath(w.segFirst), first: w.segFirst, last: w.seq, bytes: w.segBytes})
	if err := w.createSegment(); err != nil {
		return err
	}
	w.bw.Reset(w.f)
	// The closed segment is fully fsynced: everything up to its last
	// record is durable even if no group commit ran yet.
	w.dmu.Lock()
	if last := w.segs[len(w.segs)-1].last; last > w.durable {
		w.durable = last
		w.dcond.Broadcast()
	}
	w.dmu.Unlock()
	return nil
}

// Append writes one record to the log buffer and returns its sequence
// number. It does NOT wait for durability — call Commit with the returned
// (or the batch's highest) sequence number before acknowledging.
func (w *WAL) Append(r Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.segBytes >= w.opts.SegmentBytes && w.seq >= w.segFirst {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	w.seq++
	r.Seq = w.seq
	// The record's bytes, then its line, in one reused buffer.
	w.scratch = appendRecord(w.scratch[:0], &r)
	n := len(w.scratch)
	w.scratch = appendLine(w.scratch, w.scratch[:n])
	line := w.scratch[n:]
	if _, err := w.bw.Write(line); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	w.segBytes += int64(len(line))
	return w.seq, nil
}

// Commit makes the log durable through seq per the sync policy and then
// returns. Under SyncAlways it blocks until a (group-committed) fsync
// covers seq; under SyncInterval and SyncOff it only pushes the buffer to
// the OS — the fsync happens on the timer, or whenever the OS decides.
func (w *WAL) Commit(seq uint64) error {
	//lint:ignore ctxflow compatibility shim for deadline-less callers; request paths use CommitContext
	return w.CommitContext(context.Background(), seq)
}

// CommitContext is Commit bounded by a context: a waiter whose ctx is done
// before an fsync covers seq abandons the wait and returns the context's
// error. The record stays in the log and becomes durable with the next
// group commit regardless — abandoning only means the caller must not
// acknowledge, so the observation is at-least-once (replayed on recovery if
// the client retries against a crashed server), never acknowledged-then-
// lost. This is the deadline-propagation hook for the serve layer's ingest
// budget: a client that is gone stops occupying a commit slot.
func (w *WAL) CommitContext(ctx context.Context, seq uint64) error {
	if seq == 0 {
		return nil
	}
	if w.opts.OnCommitWait != nil {
		begin := time.Now()
		defer func() { w.opts.OnCommitWait(time.Since(begin)) }()
	}
	if w.opts.Sync != SyncAlways {
		// The commit itself only pushes to the OS, but a sticky fsync
		// failure from the interval syncer must still fail the ack:
		// otherwise the service would keep acknowledging writes forever
		// while nothing new reaches disk, unbounding the documented
		// one-interval loss window.
		w.dmu.Lock()
		serr := w.syncErr
		w.dmu.Unlock()
		if serr != nil {
			return serr
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return ErrClosed
		}
		err := w.bw.Flush()
		w.mu.Unlock()
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		return nil
	}
	// Leader/follower group commit: the first waiter whose record is not
	// yet durable runs the flush+fsync itself (no goroutine handoff on
	// the hot path); everyone who appended before its flush rides the same
	// fsync and is released together. Writers that arrive during the
	// leader's fsync queue up as the next batch and elect the next leader
	// the moment the broadcast wakes them.
	//
	// Cancellation: sync.Cond cannot select on a channel, so a canceled
	// context wakes the waiters with a broadcast and each checks its own
	// ctx on the way around the loop. The durability check deliberately
	// precedes the ctx check — if the fsync made seq durable by the time
	// the waiter wakes, the commit succeeded and is reported as such.
	if done := ctx.Done(); done != nil {
		stop := context.AfterFunc(ctx, func() {
			w.dmu.Lock()
			w.dcond.Broadcast()
			w.dmu.Unlock()
		})
		defer stop()
	}
	w.dmu.Lock()
	defer w.dmu.Unlock()
	for {
		if w.durable >= seq {
			return nil
		}
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.dclosed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !w.syncing {
			w.syncing = true
			w.dmu.Unlock()
			// Let already-runnable writers finish their appends before the
			// flush picks its target: on few-core machines the leader
			// otherwise outruns the pack and fsyncs batches of one.
			runtime.Gosched()
			target, err := w.flushAndSync()
			w.dmu.Lock()
			w.syncing = false
			w.finishSync(target, err)
			w.dcond.Broadcast()
			continue
		}
		w.dcond.Wait()
	}
}

// syncer is the interval policy's timer loop.
func (w *WAL) syncer() {
	defer close(w.syncerDone)
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			w.syncPass()
			return
		case <-t.C:
			w.syncPass()
		}
	}
}

// flushAndSync pushes the buffer to the OS under mu, then fsyncs OUTSIDE
// it so appends proceed concurrently with the disk wait. It returns the
// highest sequence number the pass covered.
func (w *WAL) flushAndSync() (uint64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	target := w.seq
	err := w.bw.Flush()
	f := w.f
	w.mu.Unlock()
	if err == nil {
		err = w.syncFile(f)
		// A rotation may close f between our flush and fsync; rotation
		// itself fsyncs the segment first, so the data is durable and the
		// error is benign.
		if errors.Is(err, os.ErrClosed) {
			err = nil
		}
	}
	w.fsyncs.Add(1)
	if err != nil {
		return target, fmt.Errorf("wal: fsync: %w", err)
	}
	return target, nil
}

// finishSync records a completed pass. Callers hold dmu.
func (w *WAL) finishSync(target uint64, err error) {
	if err != nil {
		w.syncErr = err
	} else if target > w.durable {
		w.lastGroup.Store(target - w.durable)
		w.durable = target
	}
}

// syncPass is one complete flush+fsync+publish cycle (interval ticks,
// forced Sync).
func (w *WAL) syncPass() {
	target, err := w.flushAndSync()
	if errors.Is(err, ErrClosed) {
		return
	}
	w.dmu.Lock()
	w.finishSync(target, err)
	w.dcond.Broadcast()
	w.dmu.Unlock()
}

// Seq returns the last assigned sequence number. Every record at or below
// it has completed its Append call.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// TruncateThrough deletes the segments whose records a newer snapshot fully
// covers (every record seq'd at or below seq). The open segment is rotated
// first if it is fully covered too, so a snapshot taken at the log head
// empties the log. Records above seq are always retained, and so are the
// newest Options.RetainSegments covered segments — replication history a
// lagging follower can still fetch (see ReadFrom) at the cost of idempotent
// replay on the next Open.
func (w *WAL) TruncateThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.seq <= seq && w.seq >= w.segFirst {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	// Delete only a contiguous prefix: if a removal fails, every later
	// segment must survive too, or the log would recover with a mid-log
	// sequence gap and refuse to open. A retained covered segment only
	// costs idempotent replay; a gap is fatal.
	covered := 0
	for _, sg := range w.segs {
		if sg.last > seq { // holds for empty markers too (first > last)
			break
		}
		covered++
	}
	// Retention quota: only segments that actually hold records (first <=
	// last) count toward RetainSegments — an empty rotation/bootstrap marker
	// buys a reconnecting follower no history, so spending a retained slot
	// on one would silently shrink the shipped-history window below the
	// configured size. limit is the length of the removable prefix; markers
	// inside it go too, markers past it survive (contiguity).
	limit := covered
	if quota := w.opts.RetainSegments; quota > 0 {
		limit = 0
		nonEmpty := 0
		for i := covered - 1; i >= 0; i-- {
			if sg := w.segs[i]; sg.first <= sg.last {
				if nonEmpty++; nonEmpty == quota {
					limit = i
					break
				}
			}
		}
	}
	removed := false
	var firstErr error
	drop := 0
	for _, sg := range w.segs[:covered] {
		if drop >= limit {
			break
		}
		if err := os.Remove(sg.path); err != nil {
			firstErr = fmt.Errorf("wal: truncate: %w", err)
			break
		}
		removed = true
		drop++
	}
	w.segs = append(w.segs[:0:0], w.segs[drop:]...)
	if removed {
		if err := syncDir(w.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Rebase discards the log's entire local history and restarts it so the
// next appended record is assigned sequence number first. It is the
// follower re-bootstrap primitive: after the leader truncates past a
// follower's position, the follower downloads a fresh snapshot covering
// sequence first-1, at which point its local records are at best redundant
// with the snapshot — so every segment (the open one included) is deleted
// and a fresh empty segment named for first pins the counter, exactly as
// WriteBootstrapSegment does for a cold bootstrap. The buffered tail is
// deliberately NOT flushed: it is history being discarded, not data to
// preserve.
func (w *WAL) Rebase(first uint64) error {
	if first == 0 {
		return errors.New("wal: Rebase needs a sequence >= 1")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	//lint:ignore errswallow the segment is deleted next; nothing in it to preserve
	w.f.Close()
	// Delete newest-first so a failure partway leaves a contiguous prefix —
	// an old log a future Open can still replay — never a mid-log gap. A
	// failed Rebase leaves the WAL wedged on a closed file; the caller's
	// retry (the follower loop re-bootstraps again on the next 410) runs the
	// whole sequence over and completes the deletion.
	doomed := append(append([]segment(nil), w.segs...), segment{path: w.segmentPath(w.segFirst)})
	for i := len(doomed) - 1; i >= 0; i-- {
		if err := os.Remove(doomed[i].path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: rebase: %w", err)
		}
	}
	w.segs = nil
	w.seq = first - 1
	// createSegment fsyncs the directory, covering the removals above too.
	if err := w.createSegment(); err != nil {
		return err
	}
	w.bw.Reset(w.f)
	// Everything below first lives in the snapshot the caller applied; the
	// log itself is empty, so the durability watermark is exactly first-1.
	w.dmu.Lock()
	w.durable = first - 1
	w.lastGroup.Store(0)
	w.dcond.Broadcast()
	w.dmu.Unlock()
	return nil
}

// Sync forces one flush+fsync pass regardless of policy.
func (w *WAL) Sync() error {
	w.syncPass()
	w.dmu.Lock()
	defer w.dmu.Unlock()
	return w.syncErr
}

// Stats returns a point-in-time snapshot of the log's state.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	st := Stats{
		Seq:          w.seq,
		Segments:     len(w.segs) + 1,
		Bytes:        w.segBytes,
		Recovered:    w.recovered,
		IgnoredFiles: w.ignoredFiles,
	}
	for _, sg := range w.segs {
		st.Bytes += sg.bytes
	}
	if w.closed {
		st.Segments--
	}
	w.mu.Unlock()
	w.dmu.Lock()
	st.DurableSeq = w.durable
	w.dmu.Unlock()
	st.Fsyncs = w.fsyncs.Load()
	st.LastGroupCommit = w.lastGroup.Load()
	return st
}

// Close flushes and fsyncs the open segment and stops the syncer. Appends
// and commits after Close return ErrClosed; commit waiters in flight are
// released (their records are flushed, but only fsync-covered ones were
// ever reported durable).
func (w *WAL) Close() error {
	w.closeOnce.Do(func() {
		close(w.quit)
		<-w.syncerDone // final syncPass covers everything appended so far
		w.mu.Lock()
		err := w.bw.Flush()
		if serr := w.syncFile(w.f); err == nil {
			err = serr
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		final := w.seq
		w.closed = true
		w.mu.Unlock()
		w.dmu.Lock()
		if err == nil && final > w.durable {
			w.durable = final
		}
		w.dclosed = true
		w.dcond.Broadcast()
		w.dmu.Unlock()
		if err != nil {
			w.closeErr = fmt.Errorf("wal: close: %w", err)
		}
	})
	return w.closeErr
}

// syncDir fsyncs a directory so renames, creations and deletions in it are
// on disk. Windows cannot fsync a directory handle (and does not need to:
// NTFS metadata operations are journaled), so it is a no-op there.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
