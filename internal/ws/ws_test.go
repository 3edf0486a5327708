package ws

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func startEchoServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := conn.WriteMessage(op, msg); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/"
}

func TestHandshakeAndEcho(t *testing.T) {
	url := startEchoServer(t)
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, msg := range []string{"hello", "", "multi word message"} {
		if err := c.WriteMessage(OpText, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		op, got, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != OpText || string(got) != msg {
			t.Fatalf("echo = %v %q, want %q", op, got, msg)
		}
	}
}

func TestBinaryAndLargeMessages(t *testing.T) {
	url := startEchoServer(t)
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Cover all three length encodings: <126, 16-bit, 64-bit.
	for _, size := range []int{0, 125, 126, 65535, 65536, 200_000} {
		msg := bytes.Repeat([]byte{0xab}, size)
		if err := c.WriteMessage(OpBinary, msg); err != nil {
			t.Fatal(err)
		}
		op, got, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if op != OpBinary || !bytes.Equal(got, msg) {
			t.Fatalf("size %d corrupted (got %d bytes)", size, len(got))
		}
	}
}

func TestWriteFrameWireFormat(t *testing.T) {
	// The bytes on the wire at each length-encoding boundary, checked
	// against RFC 6455 §5.2 directly rather than through our own reader: a
	// server frame is unmasked, a client frame masked, and header and
	// payload arrive back to back over a real TCP connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, server := range []bool{true, false} {
		for _, size := range []int{0, 125, 126, 65535, 65536} {
			a, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			b, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			c := &Conn{conn: a, server: server, rng: rand.New(rand.NewSource(int64(size)))}
			want := bytes.Repeat([]byte{0x5a}, size)
			payload := bytes.Clone(want)
			errc := make(chan error, 1)
			go func() { errc <- c.WriteMessage(OpBinary, payload) }()
			hdr := []byte{0x82, 0}
			switch {
			case size < 126:
				hdr[1] = byte(size)
			case size <= 0xffff:
				hdr[1] = 126
				hdr = binary.BigEndian.AppendUint16(hdr, uint16(size))
			default:
				hdr[1] = 127
				hdr = binary.BigEndian.AppendUint64(hdr, uint64(size))
			}
			maskLen := 0
			if !server {
				hdr[1] |= 0x80
				maskLen = 4
			}
			wire := make([]byte, len(hdr)+maskLen+size)
			if _, err := io.ReadFull(b, wire); err != nil {
				t.Fatalf("server=%v size %d: %v", server, size, err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("server=%v size %d: write: %v", server, size, err)
			}
			if !bytes.Equal(wire[:len(hdr)], hdr) {
				t.Fatalf("server=%v size %d: header % x, want % x", server, size, wire[:len(hdr)], hdr)
			}
			got := wire[len(hdr)+maskLen:]
			if !server {
				var mask [4]byte
				copy(mask[:], wire[len(hdr):])
				maskBytes(mask, 0, got)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(payload, want) {
				t.Fatalf("server=%v size %d: payload corrupted on the wire or in the caller's buffer", server, size)
			}
			a.Close()
			b.Close()
		}
	}
}

func TestEchoProperty(t *testing.T) {
	url := startEchoServer(t)
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := func(msg []byte) bool {
		if len(msg) > 10000 {
			msg = msg[:10000]
		}
		if err := c.WriteMessage(OpBinary, msg); err != nil {
			return false
		}
		_, got, err := c.ReadMessage()
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPingPong(t *testing.T) {
	url := startEchoServer(t)
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Ping; server must answer with pong which ReadMessage consumes
	// transparently — follow with an echo to prove the stream advanced.
	if err := c.Ping([]byte("keepalive")); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMessage(OpText, []byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, got, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "after-ping" {
		t.Fatalf("got %q", got)
	}
}

func TestCloseHandshake(t *testing.T) {
	done := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		_, _, err = conn.ReadMessage()
		done <- err
	}))
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("server read err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not observe close")
	}
}

func TestUpgradeRejectsPlainHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("plain GET upgraded")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestUpgradeRejectsBadVersion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Upgrade(w, r)
	}))
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Key", "x")
	req.Header.Set("Sec-WebSocket-Version", "8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAcceptKeyRFCVector(t *testing.T) {
	// RFC 6455 §1.3 example.
	if got := acceptKey("dGhlIHNhbXBsZSBub25jZQ=="); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("acceptKey = %q", got)
	}
}

func TestMessageSizeLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		conn.MaxMessage = 1024
		_, _, err = conn.ReadMessage()
		if err != ErrMessageTooBig {
			t.Errorf("server err = %v, want ErrMessageTooBig", err)
		}
		conn.Close()
	}))
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WriteMessage(OpBinary, make([]byte, 4096))
	time.Sleep(100 * time.Millisecond)
}

func TestHubBroadcast(t *testing.T) {
	hub := NewHub(64)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	url := "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/"

	const nClients = 5
	conns := make([]*Conn, nClients)
	for i := range conns {
		c, err := Dial(url)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	deadline := time.Now().Add(2 * time.Second)
	for hub.Clients() < nClients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d clients registered", hub.Clients())
		}
		time.Sleep(5 * time.Millisecond)
	}
	const nMsgs = 20
	for i := 0; i < nMsgs; i++ {
		hub.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	for ci, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		for i := 0; i < nMsgs; i++ {
			_, msg, err := c.ReadMessage()
			if err != nil {
				t.Fatalf("client %d msg %d: %v", ci, i, err)
			}
			if string(msg) != fmt.Sprintf("m%d", i) {
				t.Fatalf("client %d msg %d = %q", ci, i, msg)
			}
		}
	}
	sent, dropped := hub.Stats()
	if sent != nClients*nMsgs || dropped != 0 {
		t.Fatalf("stats: sent=%d dropped=%d", sent, dropped)
	}
}

func TestHubSlowClientDoesNotBlockBroadcast(t *testing.T) {
	hub := NewHub(4)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for hub.Clients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Never read from the client; broadcast far beyond its queue.
	start := time.Now()
	for i := 0; i < 10000; i++ {
		hub.Broadcast([]byte("x"))
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("broadcast blocked on slow client")
	}
	if _, dropped := hub.Stats(); dropped == 0 {
		t.Fatal("no drops recorded for slow client")
	}
}

func TestHubClientDisconnectCleanup(t *testing.T) {
	hub := NewHub(16)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for hub.Clients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	deadline = time.Now().Add(2 * time.Second)
	for hub.Clients() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never cleaned up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentBroadcasters(t *testing.T) {
	hub := NewHub(1 << 12)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for hub.Clients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no client")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var received atomic.Uint64
	go func() {
		for {
			if _, _, err := c.ReadMessage(); err != nil {
				return
			}
			received.Add(1)
		}
	}()
	var wg sync.WaitGroup
	const perWorker = 500
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				hub.Broadcast([]byte("data"))
			}
		}()
	}
	wg.Wait()
	deadline = time.Now().Add(5 * time.Second)
	for {
		sent, dropped := hub.Stats()
		if received.Load() == sent && sent+dropped == 4*perWorker {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sent=%d dropped=%d received=%d", sent, dropped, received.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func BenchmarkBroadcastFanout8(b *testing.B) {
	hub := NewHub(1 << 16)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	url := "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/"
	for i := 0; i < 8; i++ {
		c, err := Dial(url)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		go func() {
			for {
				if _, _, err := c.ReadMessage(); err != nil {
					return
				}
			}
		}()
	}
	for hub.Clients() < 8 {
		time.Sleep(time.Millisecond)
	}
	msg := []byte(`{"time":1,"total_ns":145000000,"src":{"city":"Auckland"},"dst":{"city":"Los Angeles"}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Broadcast(msg)
	}
}

// TestHubStreamRouting pins the per-client stream subscription: live and
// rollup audiences are disjoint, each Broadcast* reaches exactly its own
// stream, and the per-stream counts track connects and disconnects.
func TestHubStreamRouting(t *testing.T) {
	hub := NewHub(64)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	base := "ws://" + strings.TrimPrefix(srv.URL, "http://")

	live, err := Dial(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	rollup, err := Dial(base + "/?stream=rollup")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for hub.LiveClients() < 1 || hub.RollupClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("counts: live=%d rollup=%d", hub.LiveClients(), hub.RollupClients())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hub.Clients() != 2 {
		t.Fatalf("Clients() = %d, want 2", hub.Clients())
	}

	hub.Broadcast([]byte("live-frame"))
	hub.BroadcastRollup([]byte("rollup-frame"))

	live.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, msg, err := live.ReadMessage(); err != nil || string(msg) != "live-frame" {
		t.Fatalf("live client read %q, %v; want live-frame", msg, err)
	}
	rollup.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, msg, err := rollup.ReadMessage(); err != nil || string(msg) != "rollup-frame" {
		t.Fatalf("rollup client read %q, %v; want rollup-frame", msg, err)
	}
	// Neither client may see the other stream's frame: send a second frame
	// on each stream and check it arrives next (nothing interleaved).
	hub.Broadcast([]byte("live-2"))
	hub.BroadcastRollup([]byte("rollup-2"))
	if _, msg, err := live.ReadMessage(); err != nil || string(msg) != "live-2" {
		t.Fatalf("live client read %q, %v; want live-2", msg, err)
	}
	if _, msg, err := rollup.ReadMessage(); err != nil || string(msg) != "rollup-2" {
		t.Fatalf("rollup client read %q, %v; want rollup-2", msg, err)
	}

	rollup.Close()
	deadline = time.Now().Add(2 * time.Second)
	for hub.RollupClients() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rollup count stuck at %d after disconnect", hub.RollupClients())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hub.LiveClients() != 1 || hub.Clients() != 1 {
		t.Fatalf("after disconnect: live=%d total=%d", hub.LiveClients(), hub.Clients())
	}
}

// TestHubRejectsUnknownStream: an unrecognized stream parameter is a 400
// before any upgrade, so a typo fails loudly instead of silently joining
// the live feed.
func TestHubRejectsUnknownStream(t *testing.T) {
	hub := NewHub(64)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/?stream=firehose")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if _, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/?stream=firehose"); err == nil {
		t.Fatal("Dial with unknown stream succeeded, want handshake failure")
	}
	if hub.Clients() != 0 {
		t.Fatalf("rejected client counted: %d", hub.Clients())
	}
}
