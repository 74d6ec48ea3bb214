package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// rawConn is a minimal HTTP/1.1 keep-alive client for the check loop. It
// writes pre-rendered GET requests and parses just enough of the answer
// (status, Content-Length or chunked framing, Connection: close) to read
// the body. net/http's client costs more CPU per request than the server
// spends answering it; on a two-processor host that would make the load
// generator, not the server, the thing being measured.
type rawConn struct {
	addr string // host:port
	c    net.Conn
	r    *bufio.Reader
}

func newRawConn(base string) *rawConn {
	return &rawConn{addr: strings.TrimPrefix(base, "http://")}
}

// request renders a GET for path.
func (rc *rawConn) request(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: " + rc.addr + "\r\n\r\n")
}

// get sends req and reads a 200 answer's body into body. On any error the
// connection is dropped and redialled by the next call.
func (rc *rawConn) get(req []byte, body *bytes.Buffer) error {
	if rc.c == nil {
		c, err := net.DialTimeout("tcp", rc.addr, 5*time.Second)
		if err != nil {
			return err
		}
		rc.c, rc.r = c, bufio.NewReaderSize(c, 16<<10)
	}
	_ = rc.c.SetDeadline(time.Now().Add(10 * time.Second))
	status, closeAfter, err := rc.roundTrip(req, body)
	if err != nil || closeAfter {
		rc.close()
	}
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body.Bytes()))
	}
	return nil
}

func (rc *rawConn) roundTrip(req []byte, body *bytes.Buffer) (status int, closeAfter bool, err error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, false, err
	}
	line, err := rc.r.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := rc.r.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		name, val, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, false, fmt.Errorf("malformed header %q", h)
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, false, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closeAfter = bytes.EqualFold(val, []byte("close"))
		}
	}
	body.Reset()
	switch {
	case chunked:
		err = readChunked(rc.r, body)
	case length >= 0:
		_, err = io.CopyN(body, rc.r, int64(length))
	default:
		return status, true, errors.New("answer without length")
	}
	return status, closeAfter, err
}

// readChunked reads a chunked body (no trailers) into body.
func readChunked(r *bufio.Reader, body *bytes.Buffer) error {
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size > 0 {
			if _, err := io.CopyN(body, r, size); err != nil {
				return err
			}
		}
		if _, err := r.Discard(2); err != nil { // CRLF after the chunk
			return err
		}
		if size == 0 {
			return nil
		}
	}
}

func (rc *rawConn) close() {
	if rc.c != nil {
		rc.c.Close()
		rc.c, rc.r = nil, nil
	}
}
