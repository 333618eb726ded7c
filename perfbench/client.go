package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"time"
)

// conn is a minimal HTTP/1.1 keep-alive client over one TCP connection. It
// reads the chunked body itself, so the benchmark sees the first response
// byte, the last byte, and every chunk the server flushed — what net/http's
// client hides.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
}

// response is one exchange as seen on the wire.
type response struct {
	status      int
	resultCache string // X-Result-Cache header, when present
	body        []byte
	chunks      int
	wireBytes   int // body bytes including chunk framing
	sent        time.Time
	first, last time.Time
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the whole response into resp, reusing
// resp.body's storage. Any transport error closes the connection; the next
// call redials.
func (c *conn) do(method, path string, body []byte, resp *response) error {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 64<<10)
	}
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: xqd\r\n"...)
	if body != nil {
		c.req = append(c.req, "Content-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	c.req = append(c.req, body...)
	resp.sent = time.Now()
	// A stalled server fails the request instead of hanging the run.
	c.c.SetDeadline(resp.sent.Add(60 * time.Second))
	if _, err := c.c.Write(c.req); err != nil {
		c.close()
		return err
	}
	if err := c.read(resp); err != nil {
		c.close()
		return err
	}
	return nil
}

func (c *conn) read(resp *response) error {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("status line: %w", err)
	}
	resp.first = time.Now()
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return fmt.Errorf("bad status line %q", line)
	}
	resp.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return fmt.Errorf("bad status line %q", line)
	}
	resp.resultCache, resp.chunks, resp.wireBytes = "", 0, 0
	resp.body = resp.body[:0]
	chunked, closeAfter, length := false, false, -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Content-Length")):
			length, err = strconv.Atoi(string(v))
			if err != nil {
				return fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Connection")):
			closeAfter = bytes.EqualFold(v, []byte("close"))
		case bytes.EqualFold(k, []byte("X-Result-Cache")):
			resp.resultCache = string(v)
		}
	}
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return fmt.Errorf("chunk size: %w", err)
			}
			resp.wireBytes += len(line)
			hex, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
			n, err := strconv.ParseInt(string(hex), 16, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				for { // trailers end at an empty line
					t, err := c.br.ReadSlice('\n')
					if err != nil {
						return fmt.Errorf("trailer: %w", err)
					}
					resp.wireBytes += len(t)
					if len(bytes.TrimRight(t, "\r\n")) == 0 {
						break
					}
				}
				break
			}
			resp.chunks++
			if err := c.readN(resp, int(n)+2); err != nil {
				return err
			}
			resp.body = resp.body[:len(resp.body)-2] // chunk's CRLF
		}
	case length >= 0:
		if err := c.readN(resp, length); err != nil {
			return err
		}
	default:
		return errors.New("response has neither chunked encoding nor Content-Length")
	}
	resp.last = time.Now()
	if closeAfter {
		c.close()
	}
	return nil
}

// readN appends exactly n body bytes to resp.body.
func (c *conn) readN(resp *response, n int) error {
	resp.body = slices.Grow(resp.body, n)
	start := len(resp.body)
	resp.body = resp.body[:start+n]
	if _, err := io.ReadFull(c.br, resp.body[start:]); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	resp.wireBytes += n
	return nil
}
