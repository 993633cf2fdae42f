//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// server is a running fused process.
type server struct {
	*child
	addr string
	// ready is how long exec → first /healthz 200 took.
	ready time.Duration
}

// bootTimeout bounds the wait for a started fused to answer /healthz.
const bootTimeout = 60 * time.Second

// startFused execs fused with the flags every serving workload shares plus
// extra, and polls /healthz every 2 ms until it answers 200. fused listens
// only once its first snapshot is built, so the first 200 is readiness.
func (e *env) startFused(storePath string, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-store", storePath, "-addr", addr, "-method", "corr", "-shards", strconv.Itoa(numShards), "-refresh", "0"}, extra...)
	begin := time.Now()
	c, err := startChild(e.fused, args...)
	if err != nil {
		return nil, err
	}
	s := &server{child: c, addr: addr}
	healthz := request("GET", "/healthz", nil)
	for {
		if c.exited() {
			return nil, fmt.Errorf("fused exited during boot: %v\n%s", c.err, c.stderr.String())
		}
		if time.Since(begin) > bootTimeout {
			c.kill()
			return nil, fmt.Errorf("fused not ready after %v\n%s", bootTimeout, c.stderr.String())
		}
		if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			cn := &conn{c: nc, br: bufio.NewReader(nc)}
			status, _, err := cn.do(healthz)
			cn.close()
			if err == nil && status == 200 {
				s.ready = time.Since(begin)
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// recoveredRecords reads off /healthz how many WAL records the boot
// replayed (-1 when the server reports no WAL).
func (s *server) recoveredRecords() (int, error) {
	status, body, err := get(s.addr, "/healthz")
	if err != nil || status != 200 {
		return 0, fmt.Errorf("/healthz: status %d: %v", status, err)
	}
	var h struct {
		WAL *struct {
			RecoveredRecords int `json:"recoveredRecords"`
		} `json:"wal"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, err
	}
	if h.WAL == nil {
		return -1, nil
	}
	return h.WAL.RecoveredRecords, nil
}

// refuse posts /v1/refuse and returns how long the call took.
func (s *server) refuse(c *conn) (time.Duration, error) {
	begin := time.Now()
	status, body, err := c.doWithin(request("POST", "/v1/refuse", nil), bootTimeout)
	if err != nil || status != 200 {
		return 0, fmt.Errorf("/v1/refuse: status %d: %v %s", status, err, body)
	}
	return time.Since(begin), nil
}

// scrape is one reading of /metrics: series (name plus label set, as
// exposed) to value.
type scrape map[string]float64

func (s *server) scrape() (scrape, error) {
	status, body, err := get(s.addr, "/metrics")
	if err != nil || status != 200 {
		return nil, fmt.Errorf("/metrics: status %d: %v", status, err)
	}
	out := make(scrape)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histMean returns the mean of histogram family{label="value"} between two
// scrapes (after − before), in the given unit, and whether the family was
// there and moved. A family a later change removes reads as absent, not as
// an error.
func histMean(before, after scrape, family, label, value string, unit time.Duration) (float64, bool) {
	sel := ""
	if label != "" {
		sel = fmt.Sprintf(`{%s="%s"}`, label, value)
	}
	sum, ok1 := after[family+"_sum"+sel]
	count, ok2 := after[family+"_count"+sel]
	if !ok1 || !ok2 {
		return 0, false
	}
	sum -= before[family+"_sum"+sel]
	count -= before[family+"_count"+sel]
	if count <= 0 {
		return 0, false
	}
	return sum / count * float64(time.Second) / float64(unit), true
}

// storePath is where a run keeps its seed store.
func (e *env) storePath() string { return filepath.Join(e.runDir, "store.jsonl") }
