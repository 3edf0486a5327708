package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ruru/internal/ws"
)

// serveTest starts newHTTPServer's server on a loopback port with the
// header timeout shortened to hdr, and returns its address.
func serveTest(t *testing.T, h http.Handler, hdr time.Duration) string {
	t.Helper()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.ReadHeaderTimeout != httpReadHeaderTimeout || srv.IdleTimeout != httpIdleTimeout ||
		srv.MaxHeaderBytes != httpMaxHeaderBytes {
		t.Fatalf("server bounds = (%v, %v, %d), want the package constants",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout/WriteTimeout set (%v, %v): they would cut hijacked /ws connections",
			srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = hdr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestHTTPServerClosesStalledHeader: a client that sends half a request
// header and stalls is disconnected once the header timeout passes.
func TestHTTPServerClosesStalledHeader(t *testing.T) {
	const hdr = 200 * time.Millisecond
	addr := serveTest(t, http.NotFoundHandler(), hdr)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.SetReadDeadline(start.Add(10 * time.Second))
	// The server may answer 408 before closing; read until EOF either way.
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("stalled connection not closed by the server: %v", err)
	}
	if el := time.Since(start); el < hdr/2 {
		t.Fatalf("closed after %v, before the %v header timeout", el, hdr)
	}
}

// TestHTTPServerKeepsWebSocketPastHeaderTimeout: an upgraded connection
// carries no deadline from the header timeout, so a live /ws client keeps
// talking long after it would have fired. The server echoes every
// message, so a deadline left on the upgraded connection in either
// direction ends the exchange.
func TestHTTPServerKeepsWebSocketPastHeaderTimeout(t *testing.T) {
	const hdr = 100 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := ws.Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, msg); err != nil {
				return
			}
		}
	})
	addr := serveTest(t, h, hdr)
	c, err := ws.Dial("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	for i := 0; i < 10; i++ {
		time.Sleep(hdr / 2)
		if err := c.WriteMessage(ws.OpText, []byte("tick")); err != nil {
			t.Fatalf("send %d after %v: %v", i, time.Since(start), err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, _, err := c.ReadMessage(); err != nil {
			t.Fatalf("echo %d after %v: %v", i, time.Since(start), err)
		}
	}
	if el := time.Since(start); el < 4*hdr {
		t.Fatalf("exchange ended after %v, not past the %v header timeout", el, hdr)
	}
}
