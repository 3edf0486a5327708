package mq

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPubSubBasic(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, err := b.Subscribe("latency.", 16)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(Message{Topic: "latency.v4", Payload: []byte("a")})
	b.Publish(Message{Topic: "stats.port", Payload: []byte("b")}) // filtered out
	b.Publish(Message{Topic: "latency.v6", Payload: []byte("c")})

	got := []string{}
	for i := 0; i < 2; i++ {
		select {
		case m := <-sub.C():
			got = append(got, m.Topic)
		case <-time.After(time.Second):
			t.Fatal("timeout")
		}
	}
	if got[0] != "latency.v4" || got[1] != "latency.v6" {
		t.Fatalf("got %v", got)
	}
	select {
	case m := <-sub.C():
		t.Fatalf("unexpected message %v", m.Topic)
	default:
	}
}

func TestEmptyPrefixMatchesAll(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, _ := b.Subscribe("", 4)
	b.Publish(Message{Topic: "x"})
	b.Publish(Message{Topic: "y"})
	if len(sub.ch) != 2 {
		t.Fatalf("queued %d", len(sub.ch))
	}
}

func TestHasSubscriberTracksPrefixes(t *testing.T) {
	b := NewBus()
	if b.HasSubscriber("latency.v4") {
		t.Fatal("empty bus reports a subscriber")
	}
	lat, _ := b.Subscribe("latency.", 1)
	all, _ := b.Subscribe("", 1)
	if !b.HasSubscriber("stats.port") || !b.HasSubscriber("latency.v4") {
		t.Fatal("catch-all subscription not seen")
	}
	all.Close()
	if b.HasSubscriber("stats.port") {
		t.Fatal("closed subscription still matches")
	}
	if !b.HasSubscriber("latency.v4") {
		t.Fatal("prefix subscription not seen")
	}
	b.Close()
	if b.HasSubscriber("latency.v4") {
		t.Fatal("closed bus reports a subscriber")
	}
	lat.Close() // already closed by the bus: a no-op
}

func TestHWMDropsInsteadOfBlocking(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, _ := b.Subscribe("", 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			b.Publish(Message{Topic: "t", Payload: []byte{byte(i)}})
		}
	}()
	select {
	case <-done: // must not block even though nobody drains
	case <-time.After(2 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if sub.Dropped() != 98 {
		t.Fatalf("dropped = %d, want 98", sub.Dropped())
	}
	pub, dropped := b.Stats()
	if pub != 100 || dropped != 98 {
		t.Fatalf("bus stats = %d published, %d dropped", pub, dropped)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, _ := b.Subscribe("", 4)
	sub.Close()
	sub.Close() // idempotent
	b.Publish(Message{Topic: "t"})
	if _, ok := <-sub.C(); ok {
		t.Fatal("received on closed subscription")
	}
}

func TestBusCloseClosesSubscribers(t *testing.T) {
	b := NewBus()
	sub, _ := b.Subscribe("", 4)
	b.Close()
	b.Close() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Fatal("subscription channel not closed")
	}
	if _, err := b.Subscribe("", 1); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, _ := b.Subscribe("", 1<<16)
	var wg sync.WaitGroup
	const perPub = 1000
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(Message{Topic: fmt.Sprintf("pub%d", p)})
			}
		}(p)
	}
	wg.Wait()
	if len(sub.ch) != 8*perPub {
		t.Fatalf("received %d, want %d", len(sub.ch), 8*perPub)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(topic string, payload []byte) bool {
		if len(topic) > 1000 {
			topic = topic[:1000]
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, Message{Topic: topic, Payload: payload}); err != nil {
			return false
		}
		m, err := readFrame(&frameReader{r: &buf})
		if err != nil {
			return false
		}
		return m.Topic == topic && bytes.Equal(m.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	// uvarint topic length of 1GB
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04, 0x00})
	if _, err := readFrame(&frameReader{r: &buf}); err != ErrFrameTooBig {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	b := NewBus()
	defer b.Close()
	pub, err := NewTCPPublisher(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	sub, err := DialTCP(pub.Addr().String(), "latency.")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Give the publisher a moment to register the subscription.
	time.Sleep(50 * time.Millisecond)

	b.Publish(Message{Topic: "stats.x", Payload: []byte("no")})
	b.Publish(Message{Topic: "latency.v4", Payload: []byte("yes")})

	type result struct {
		m   Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		m, err := sub.Recv()
		ch <- result{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.m.Topic != "latency.v4" || string(r.m.Payload) != "yes" {
			t.Fatalf("got %q %q", r.m.Topic, r.m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for TCP message")
	}
}

func TestTCPMultipleSubscribers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	pub, err := NewTCPPublisher(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const n = 4
	subs := make([]*TCPSubscriber, n)
	for i := range subs {
		s, err := DialTCP(pub.Addr().String(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subs[i] = s
	}
	time.Sleep(50 * time.Millisecond)
	const msgs = 50
	for i := 0; i < msgs; i++ {
		b.Publish(Message{Topic: "m", Payload: []byte{byte(i)}})
	}
	for i, s := range subs {
		for j := 0; j < msgs; j++ {
			m, err := s.Recv()
			if err != nil {
				t.Fatalf("sub %d msg %d: %v", i, j, err)
			}
			if m.Payload[0] != byte(j) {
				t.Fatalf("sub %d msg %d: got %d", i, j, m.Payload[0])
			}
		}
	}
}

func TestTCPPublisherCloseUnblocksSubscribers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	pub, err := NewTCPPublisher(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := DialTCP(pub.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := sub.Recv()
		done <- err
	}()
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv succeeded after publisher close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber still blocked after publisher close")
	}
}

func BenchmarkPublishOneSubscriber(b *testing.B) {
	bus := NewBus()
	defer bus.Close()
	sub, _ := bus.Subscribe("", 1<<20)
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Message{Topic: "latency.v4", Payload: payload})
		if len(sub.ch) > 1<<19 {
			for len(sub.ch) > 0 {
				<-sub.ch
			}
		}
	}
}

func BenchmarkPublishFourSubscribers(b *testing.B) {
	bus := NewBus()
	defer bus.Close()
	for i := 0; i < 4; i++ {
		s, _ := bus.Subscribe("", 64)
		go func() {
			for range s.C() {
			}
		}()
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Message{Topic: "latency.v4", Payload: payload})
	}
}
