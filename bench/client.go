//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// opTimeout bounds one request; an operation past it counts as failed.
const opTimeout = 5 * time.Second

// conn is a keep-alive HTTP/1.1 client over a raw TCP connection: requests
// are pre-serialised byte slices written with one syscall, responses are
// read through one buffered reader into a reused body buffer. It does only
// what talking to net/http's server needs (Content-Length and chunked
// bodies), so that the generator's own cost stays small next to the
// server's.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if err := c.c.Close(); err != nil {
		warnf("closing connection: %v", err)
	}
}

// request serialises one HTTP/1.1 request.
func request(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

var errMalformed = errors.New("bench: malformed HTTP response")

// do writes req and reads one response. The returned body aliases the
// connection's buffer and is valid until the next call.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	return c.doWithin(req, opTimeout)
}

// doWithin is do with a timeout of the caller's choosing (a forced
// re-fusion or a large listing needs more than a request does).
func (c *conn) doWithin(req []byte, timeout time.Duration) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	return c.read()
}

func (c *conn) read() (status int, body []byte, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, errMalformed
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errMalformed
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "content-length:"); ok {
			length, err = strconv.Atoi(string(v))
			if err != nil {
				return 0, nil, errMalformed
			}
		} else if v, ok := headerValue(line, "transfer-encoding:"); ok && bytes.EqualFold(v, []byte("chunked")) {
			chunked = true
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
			if err != nil {
				return 0, nil, errMalformed
			}
			if err := c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errMalformed
	}
	return status, c.body, nil
}

func (c *conn) readBody(n int) error {
	off := len(c.body)
	if cap(c.body) < off+n {
		grown := make([]byte, off, 2*(off+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:off+n]
	_, err := io.ReadFull(c.br, c.body[off:])
	return err
}

// headerValue matches a header line against a lower-case "name:" prefix.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name):]), true
}

// get is a convenience for set-up and checks (not the measured loops).
func get(addr, path string) (int, []byte, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	status, body, err := c.do(request("GET", path, nil))
	return status, append([]byte(nil), body...), err
}

// nullRTT measures the generator against a server that does nothing: a
// net/http handler in this process answering 200 with a fixed body of the
// size a bulk-64 score response has. What remains is the client, the
// kernel's loopback path and net/http's connection handling — the floor
// under every socket latency this harness reports.
func nullRTT(rounds int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	payload := bytes.Repeat([]byte("x"), 7000)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return // the client sees the missing response
		}
		if _, err := w.Write(payload); err != nil {
			return
		}
	})}
	served := make(chan struct{})
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			warnf("null server: %v", err)
		}
		close(served)
	}()
	defer func() {
		if err := srv.Close(); err != nil {
			warnf("null server: %v", err)
		}
		<-served
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.close()
	req := request("POST", "/null", bytes.Repeat([]byte("y"), 4500))
	lat := make([]float64, 0, rounds)
	for i := 0; i < rounds+rounds/10; i++ {
		begin := time.Now()
		status, _, err := c.do(req)
		if err != nil || status != 200 {
			return 0, fmt.Errorf("bench: null server round trip: status %d: %v", status, err)
		}
		if i >= rounds/10 { // first tenth warms the connection up
			lat = append(lat, micros(time.Since(begin)))
		}
	}
	return median(lat), nil
}
