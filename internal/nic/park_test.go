package nic

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitParked spins until n consumers are parked on queue q.
func waitParked(t *testing.T, port *Port, q, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for port.Parked(q) != n {
		if time.Now().After(deadline) {
			t.Fatalf("Parked(%d) = %d, want %d", q, port.Parked(q), n)
		}
		runtime.Gosched()
	}
}

// parkingConsumer drains queue 0 like an RX worker that parks the moment
// its ring is empty, reporting each frame on got. It exits once ctx is
// done and the queue is empty.
func parkingConsumer(ctx context.Context, port *Port, got chan<- struct{}) {
	k := port.NewParker(0)
	bufs := make([]*Buf, 8)
	for {
		n, _ := port.RxBurst(0, bufs)
		for _, b := range bufs[:n] {
			b.Free()
			got <- struct{}{}
		}
		if n > 0 {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		k.Park(ctx)
	}
}

// spinSink keeps the jitter loop in TestParkNoLostWakeup from being
// optimized away.
var spinSink int

func TestParkNoLostWakeup(t *testing.T) {
	// Each frame is pushed either once its consumer is parked, or after a
	// random spin that lands it anywhere in the consumer's path from its
	// last frame through the empty poll into Park — the window a lost
	// wake-up needs. Both producer paths (per-frame enqueue and burst
	// flush) take turns.
	const cycles = 10000
	const bound = 2 * time.Second
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 64, Pool: NewMempool(64, 256)})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "192.0.2.1", 1000, 80)
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan struct{}, 1) // one frame in flight; teardown never blocks
	done := make(chan struct{})
	go func() {
		defer close(done)
		parkingConsumer(ctx, port, got)
	}()
	defer func() { cancel(); <-done }()
	rng := rand.New(rand.NewSource(1))
	burst := []Frame{{Data: frame}}
	for i := 0; i < cycles; i++ {
		if i%4 == 0 {
			waitParked(t, port, 0, 1)
		} else {
			for j := rng.Intn(2048); j > 0; j-- {
				spinSink += j
			}
		}
		if i%2 == 0 {
			if st := port.Inject(frame, int64(i)); !st.OK() {
				t.Fatalf("cycle %d: inject %v", i, st)
			}
		} else if n := port.InjectBurst(burst); n != 1 {
			t.Fatalf("cycle %d: burst accepted %d", i, n)
		}
		// Poll for the frame rather than block, so the next cycle starts
		// while the consumer is still on its way to Park.
		deadline := time.Now().Add(bound)
	wait:
		for {
			select {
			case <-got:
				break wait
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: frame not processed within %v (parked %d, depth %d)",
					i, bound, port.Parked(0), port.QueueLen(0))
			}
		}
	}
}

func TestParkCancelReturnsAndDrains(t *testing.T) {
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 64, Pool: NewMempool(64, 256)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan struct{}, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		parkingConsumer(ctx, port, got)
	}()
	waitParked(t, port, 0, 1)
	// Frames pushed straight onto the ring, bypassing the wake: only the
	// cancellation can rouse the consumer, and it must still drain them.
	frame := buildSYN(t, "10.0.0.1", "192.0.2.1", 1000, 80)
	for i := 0; i < 8; i++ {
		b, st := port.fill(frame, int64(i), 0, nil)
		if st != InjectOK || !port.queues[0].Push(b) {
			t.Fatalf("frame %d: fill %v", i, st)
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parked consumer did not return after cancel")
	}
	if len(got) != 8 || port.QueueLen(0) != 0 || port.Parked(0) != 0 {
		t.Fatalf("after cancel: processed %d of 8, depth %d, parked %d",
			len(got), port.QueueLen(0), port.Parked(0))
	}
}

func TestParkMultiConsumerWakesAll(t *testing.T) {
	const consumers = 4
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 64, Pool: NewMempool(64, 256), MultiConsumer: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			port.NewParker(0).Park(context.Background())
		}()
	}
	waitParked(t, port, 0, consumers)
	port.Inject(buildSYN(t, "10.0.0.1", "192.0.2.1", 1000, 80), 1)
	woke := make(chan struct{})
	go func() { wg.Wait(); close(woke) }()
	select {
	case <-woke:
	case <-time.After(2 * time.Second):
		t.Fatalf("one push left %d of %d parked consumers asleep", port.Parked(0), consumers)
	}
}

func TestParkWakeCycleNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 64, Pool: NewMempool(64, 256)})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "192.0.2.1", 1000, 80)
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan struct{}, 1) // one frame in flight; teardown never blocks
	done := make(chan struct{})
	go func() {
		defer close(done)
		parkingConsumer(ctx, port, got)
	}()
	defer func() { cancel(); <-done }()
	cycle := func() {
		waitParked(t, port, 0, 1)
		port.Inject(frame, 1)
		<-got
	}
	cycle() // the waiter list and ctx.Done channel are created once
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("park/wake cycle allocates %.2f/op", allocs)
	}
}
