// Package nic implements the poll-mode packet I/O substrate that stands in
// for DPDK in this reproduction. It mirrors the parts of the DPDK dataplane
// Ruru's pipeline is built on:
//
//   - a Mempool of fixed-size packet buffers with explicit alloc/free
//     (rte_mempool / rte_mbuf),
//   - a Port with N receive queues fed through RSS (rte_eth_dev with an
//     RSS-configured rx queue set), and
//   - burst I/O: RxBurst (rte_eth_rx_burst) on the consumer side and
//     InjectBurst on the producer side, amortizing per-packet ring
//     synchronization over whole bursts.
//
// Traffic sources (the synthetic generator, the pcap replayer) inject frames
// with Port.Inject/InjectBurst, which classify them onto a queue by Toeplitz
// hash of the 4-tuple — bit-exact with what NIC hardware RSS would do — and
// hand the buffer to that queue's ring. Worker cores poll their queue with
// RxBurst and return buffers to the pool when done; a worker whose queue
// stays empty parks on a Parker and the next push onto the queue wakes it.
//
// What happens when a queue is full is the port's overflow policy:
//
//   - Drop (default) is NIC-faithful: the frame is lost and counted in
//     Stats.Imissed exactly once, the same back-pressure signal a real NIC
//     exposes when software can't keep up with the wire.
//   - Block makes injection wait (spin → yield → sleep) for queue space, up
//     to an optional deadline — the right policy for lossless sources such
//     as pcap replay or correctness harnesses, where the source can be
//     paced by backpressure instead of silently corrupting the measurement
//     distribution.
//
// Queues are SPSC rings by default (one worker per queue, the paper's
// topology). PortConfig.MultiConsumer switches them to multi-consumer-safe
// CAS rings so several workers may drain one queue (work stealing, elastic
// worker pools).
package nic

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/pkt"
	"ruru/internal/ring"
	"ruru/internal/rss"
)

// Errors returned by the package.
var (
	ErrPoolExhausted = errors.New("nic: mempool exhausted")
	ErrFrameTooBig   = errors.New("nic: frame exceeds buffer size")
	ErrBadQueue      = errors.New("nic: queue index out of range")
)

// Buf is a packet buffer: the rte_mbuf analogue. Data is a fixed-capacity
// slice owned by the Mempool; Len bytes of it are valid. Timestamp is the
// capture timestamp in nanoseconds on the source's clock (sub-microsecond
// resolution, as in the paper). RSSHash is the Toeplitz hash computed at
// injection, which the measurement engine reuses to index its flow tables.
type Buf struct {
	Data      []byte
	Len       int
	Timestamp int64
	RSSHash   uint32

	pool *Mempool
}

// Bytes returns the valid frame contents.
func (b *Buf) Bytes() []byte { return b.Data[:b.Len] }

// Free returns the buffer to its mempool. The buffer must not be used after
// Free. Double frees are detected by the pool in tests via accounting.
func (b *Buf) Free() { b.pool.put(b) }

// Mempool is a fixed-size pool of packet buffers. Allocation never touches
// the Go heap after construction: buffers circulate between the pool, the
// queues and the workers.
type Mempool struct {
	free    chan *Buf
	bufSize int
	size    int

	allocFail atomic.Uint64
}

// NewMempool creates a pool of n buffers of bufSize bytes each.
func NewMempool(n, bufSize int) *Mempool {
	p := &Mempool{
		free:    make(chan *Buf, n),
		bufSize: bufSize,
		size:    n,
	}
	backing := make([]byte, n*bufSize) // single allocation, like a hugepage arena
	for i := 0; i < n; i++ {
		p.free <- &Buf{
			Data: backing[i*bufSize : (i+1)*bufSize : (i+1)*bufSize],
			pool: p,
		}
	}
	return p
}

// Get allocates a buffer, or nil if the pool is exhausted (counted).
func (p *Mempool) Get() *Buf {
	select {
	case b := <-p.free:
		return b
	default:
		p.allocFail.Add(1)
		return nil
	}
}

func (p *Mempool) put(b *Buf) {
	b.Len = 0
	b.Timestamp = 0
	b.RSSHash = 0
	p.free <- b
}

// Size returns the pool capacity; Available the buffers currently free;
// AllocFailures the number of failed Gets.
func (p *Mempool) Size() int             { return p.size }
func (p *Mempool) Available() int        { return len(p.free) }
func (p *Mempool) BufSize() int          { return p.bufSize }
func (p *Mempool) AllocFailures() uint64 { return p.allocFail.Load() }

// OverflowPolicy selects what injection does when the target queue is full.
type OverflowPolicy uint8

const (
	// Drop loses the frame and counts it in Imissed exactly once — the
	// behaviour of real NIC hardware when RX descriptors run out.
	Drop OverflowPolicy = iota
	// Block waits for queue space (spin → yield → sleep), bounded by
	// PortConfig.BlockTimeout when set. Lossless while the deadline holds;
	// frames that still can't be placed at the deadline are dropped and
	// counted once.
	Block
)

// String names the policy for logs and flags.
func (o OverflowPolicy) String() string {
	if o == Block {
		return "block"
	}
	return "drop"
}

// InjectStatus reports the fate of one injected frame.
type InjectStatus uint8

const (
	// InjectOK: the frame was enqueued.
	InjectOK InjectStatus = iota
	// InjectDropped: the queue was full (Drop policy) or stayed full past
	// the block deadline. Counted in Imissed.
	InjectDropped
	// InjectNoBuf: the mempool was exhausted. Counted in NoMbuf.
	InjectNoBuf
	// InjectErrFrame: the frame is oversize or unusable — permanent; do
	// not retry. Counted in Ierrors.
	InjectErrFrame
)

// OK reports whether the frame was enqueued.
func (s InjectStatus) OK() bool { return s == InjectOK }

// Retryable reports whether re-injecting the same frame can succeed once
// the pipeline drains (queue-full and pool-exhausted are transient;
// oversize frames are not).
func (s InjectStatus) Retryable() bool { return s == InjectDropped || s == InjectNoBuf }

// Frame is one wire frame handed to InjectBurst: the data plus its capture
// timestamp.
type Frame struct {
	Data []byte
	TS   int64
}

// Stats holds port-level counters matching the rte_eth_stats fields Ruru
// monitors.
type Stats struct {
	Ipackets uint64 // frames successfully enqueued
	Ibytes   uint64 // bytes successfully enqueued
	Imissed  uint64 // frames dropped: queue full (counted once per frame)
	Ierrors  uint64 // frames dropped: oversize/malformed
	NoMbuf   uint64 // frames dropped: mempool exhausted
}

// QueueStats is the per-RX-queue view: counters plus ring introspection
// (the DPDK rte_eth_dev per-queue stats plus ring watermarks).
type QueueStats struct {
	Ipackets  uint64 // frames enqueued on this queue
	Ibytes    uint64 // bytes enqueued on this queue
	Imissed   uint64 // frames dropped with this queue full
	Depth     int    // instantaneous ring occupancy
	Watermark int    // highest occupancy ever observed at enqueue
	Capacity  int    // ring capacity
}

// queueCounters is the hot per-queue counter block, cache-line padded so
// queues injected back-to-back don't false-share.
type queueCounters struct {
	ipackets atomic.Uint64
	ibytes   atomic.Uint64
	imissed  atomic.Uint64
	_        [40]byte
}

// PortConfig configures a Port.
type PortConfig struct {
	// Queues is the number of RX queues (≥1): the paper's per-core DPDK
	// receiver queues.
	Queues int
	// QueueDepth is the per-queue ring capacity (power of two).
	QueueDepth int
	// Pool provides packet buffers. Required.
	Pool *Mempool
	// Hasher computes the RSS hash. Defaults to the symmetric key,
	// matching Ruru's production configuration.
	Hasher *rss.Hasher
	// Policy selects the overflow behaviour (default Drop, NIC-faithful).
	Policy OverflowPolicy
	// BlockTimeout bounds how long Block-policy injection waits for queue
	// space. Zero means wait indefinitely.
	BlockTimeout time.Duration
	// MultiConsumer switches the queue rings to the CAS-based
	// multi-consumer implementation, allowing several workers to drain
	// the same queue. The default SPSC rings support exactly one
	// consumer per queue.
	MultiConsumer bool
}

// Port is the receive side of the virtual NIC.
type Port struct {
	queues []ring.Buffer[*Buf]
	qstats []queueCounters
	waits  []rxWait
	pool   *Mempool
	hasher *rss.Hasher

	policy       OverflowPolicy
	blockTimeout time.Duration
	stopped      atomic.Bool

	ierrors atomic.Uint64
	nombuf  atomic.Uint64

	// scratch used only on the injection path (single producer per port).
	parser pkt.Parser
	stage  [][]*Buf // per-queue staging for InjectBurst
}

// NewPort creates a port with the given configuration.
func NewPort(cfg PortConfig) (*Port, error) {
	if cfg.Queues < 1 {
		return nil, fmt.Errorf("nic: need at least one queue, got %d", cfg.Queues)
	}
	if cfg.Pool == nil {
		return nil, errors.New("nic: PortConfig.Pool is required")
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 4096
	}
	h := cfg.Hasher
	if h == nil {
		h = rss.NewSymmetric()
	}
	p := &Port{
		queues:       make([]ring.Buffer[*Buf], cfg.Queues),
		qstats:       make([]queueCounters, cfg.Queues),
		waits:        make([]rxWait, cfg.Queues),
		pool:         cfg.Pool,
		hasher:       h,
		policy:       cfg.Policy,
		blockTimeout: cfg.BlockTimeout,
		stage:        make([][]*Buf, cfg.Queues),
	}
	for i := range p.queues {
		var (
			r   ring.Buffer[*Buf]
			err error
		)
		if cfg.MultiConsumer {
			r, err = ring.NewMP[*Buf](depth)
		} else {
			r, err = ring.New[*Buf](depth)
		}
		if err != nil {
			return nil, err
		}
		p.queues[i] = r
	}
	return p, nil
}

// NumQueues returns the number of RX queues.
func (p *Port) NumQueues() int { return len(p.queues) }

// Policy returns the configured overflow policy.
func (p *Port) Policy() OverflowPolicy { return p.policy }

// Stop aborts in-progress and future Block-policy waits: blocked
// injections give up immediately (their frames are dropped and counted
// once, like a deadline expiry). Use it to unwedge a lossless source at
// shutdown, when the consumers that would have made room are gone.
func (p *Port) Stop() { p.stopped.Store(true) }

// classify computes the frame's RSS hash the way NIC silicon would.
func (p *Port) classify(frame []byte) uint32 {
	var s pkt.Summary
	if err := p.parser.Parse(frame, &s); err != nil {
		return 0
	}
	switch {
	case s.Decoded&pkt.LayerTCP != 0:
		return p.hasher.HashTuple(s.Src(), s.Dst(), s.TCP.SrcPort, s.TCP.DstPort)
	case s.Decoded&pkt.LayerUDP != 0:
		return p.hasher.HashTuple(s.Src(), s.Dst(), s.UDP.SrcPort, s.UDP.DstPort)
	case s.Decoded&(pkt.LayerIPv4|pkt.LayerIPv6) != 0:
		return p.hasher.HashTuple(s.Src(), s.Dst(), 0, 0)
	}
	return 0
}

// blockWait is the Block policy's wait loop: it retries try on the
// backoff ladder until it succeeds, the port is stopped, or the
// BlockTimeout deadline (when configured) passes. Reports try's success.
func (p *Port) blockWait(try func() bool) bool {
	if p.stopped.Load() {
		return false
	}
	var deadline time.Time
	if p.blockTimeout > 0 {
		deadline = time.Now().Add(p.blockTimeout)
	}
	var bo backoff
	for {
		bo.wait()
		if try() {
			return true
		}
		if p.stopped.Load() {
			return false
		}
		if p.blockTimeout > 0 && time.Now().After(deadline) {
			return false
		}
	}
}

// tryGetBuf is a non-counting pool allocation attempt (the injection
// paths count a failure only on final give-up).
func (p *Port) tryGetBuf() *Buf {
	select {
	case b := <-p.pool.free:
		return b
	default:
		return nil
	}
}

// fill copies a frame into a pool buffer, or reports why it couldn't.
// Under the Block policy an exhausted mempool is waited out like a full
// queue (buffers come back as workers free them), bounded by BlockTimeout,
// so a lossless source never needs a caller-side retry loop. onStarve,
// when non-nil, runs once before blocking — the burst path uses it to
// flush its staged buffers, which would otherwise deadlock the wait (the
// pool's missing buffers sitting in our own unpushed stage).
func (p *Port) fill(frame []byte, ts int64, hash uint32, onStarve func()) (*Buf, InjectStatus) {
	if len(frame) > p.pool.bufSize {
		p.ierrors.Add(1)
		return nil, InjectErrFrame
	}
	b := p.tryGetBuf()
	if b == nil && p.policy == Block {
		if onStarve != nil {
			onStarve()
		}
		p.blockWait(func() bool {
			b = p.tryGetBuf()
			return b != nil
		})
	}
	if b == nil {
		p.pool.allocFail.Add(1)
		p.nombuf.Add(1)
		return nil, InjectNoBuf
	}
	b.Len = copy(b.Data, frame)
	b.Timestamp = ts
	b.RSSHash = hash
	return b, InjectOK
}

// backoff is the wait ladder used while blocking on a full queue:
// hot spin first, then cooperative yields, then exponentially growing
// sleeps capped at 64µs — long enough to let a stalled worker run,
// short enough that drain latency stays in the microsecond regime.
type backoff struct{ n int }

func (b *backoff) wait() {
	switch {
	case b.n < 64:
		// spin: the consumer is likely mid-burst on another core
	case b.n < 128:
		runtime.Gosched()
	default:
		shift := b.n - 128
		if shift > 6 {
			shift = 6
		}
		time.Sleep(time.Duration(1<<uint(shift)) * time.Microsecond)
	}
	b.n++
}

// enqueue places one filled buffer on queue q, applying the overflow
// policy. It owns accounting for both outcomes.
func (p *Port) enqueue(q int, b *Buf) InjectStatus {
	nbytes := uint64(b.Len)
	ok := p.push(q, b)
	if !ok && p.policy == Block {
		ok = p.blockWait(func() bool { return p.push(q, b) })
	}
	if ok {
		p.qstats[q].ipackets.Add(1)
		p.qstats[q].ibytes.Add(nbytes)
		return InjectOK
	}
	p.qstats[q].imissed.Add(1)
	b.Free()
	return InjectDropped
}

// injectOne is the single-frame injection tail shared by the Inject
// variants: copy into a pool buffer, enqueue on the hash's queue.
func (p *Port) injectOne(frame []byte, ts int64, hash uint32) InjectStatus {
	b, st := p.fill(frame, ts, hash, nil)
	if st != InjectOK {
		return st
	}
	return p.enqueue(rss.Queue(hash, len(p.queues)), b)
}

// Inject delivers one frame to the port as if it arrived on the wire at
// timestamp ts (nanoseconds). The frame is copied into a pool buffer,
// classified by RSS hash, and enqueued on the owning queue. Injection is
// single-producer: one traffic source goroutine per port.
func (p *Port) Inject(frame []byte, ts int64) InjectStatus {
	return p.injectOne(frame, ts, p.classify(frame))
}

// InjectTuple is a fast-path injection for sources that already know the
// frame's 4-tuple (the synthetic generator): it skips re-parsing the frame.
func (p *Port) InjectTuple(frame []byte, ts int64, src, dst netip.Addr, srcPort, dstPort uint16) InjectStatus {
	return p.injectOne(frame, ts, p.hasher.HashTuple(src, dst, srcPort, dstPort))
}

// InjectPreclassified delivers a frame whose RSS hash was computed by the
// caller — the hardware-RSS model, where classification happened in NIC
// silicon and software only sees the hash in the descriptor. No parsing, no
// hashing: buffer copy and enqueue only. Single producer per port.
func (p *Port) InjectPreclassified(frame []byte, ts int64, hash uint32) InjectStatus {
	return p.injectOne(frame, ts, hash)
}

// InjectBurst delivers a batch of frames in one call: every frame is
// classified and copied into a pool buffer, the batch is grouped by target
// queue, and each queue receives its group with a single burst enqueue —
// one synchronization round-trip per queue per burst instead of one per
// frame. Returns the number of frames enqueued.
//
// Frames that can't be placed follow the overflow policy: with Drop they
// are lost and counted (Imissed/NoMbuf/Ierrors) exactly once each; with
// Block the call waits for queue space up to BlockTimeout. Single producer
// per port, like all injection paths.
func (p *Port) InjectBurst(frames []Frame) int {
	return p.injectStaged(frames, func(i int) uint32 {
		return p.classify(frames[i].Data)
	})
}

// InjectPreclassifiedBurst is InjectBurst for sources that already know
// each frame's RSS hash (hashes[i] belongs to frames[i]) — the
// hardware-RSS model at burst granularity. Extra hashes are ignored;
// missing ones default to 0.
func (p *Port) InjectPreclassifiedBurst(frames []Frame, hashes []uint32) int {
	return p.injectStaged(frames, func(i int) uint32 {
		if i < len(hashes) {
			return hashes[i]
		}
		return 0
	})
}

// injectStaged is the burst-injection body shared by InjectBurst and
// InjectPreclassifiedBurst: copy each frame into a pool buffer, stage per
// target queue in arrival order, burst-push each queue's group. When the
// mempool runs dry mid-burst under the Block policy, the stage is flushed
// first — those buffers are exactly what the pool is missing, and blocking
// while holding them would deadlock against ourselves.
func (p *Port) injectStaged(frames []Frame, hashOf func(i int) uint32) int {
	for q := range p.stage {
		p.stage[q] = p.stage[q][:0]
	}
	accepted := 0
	flushAll := func() {
		for q := range p.stage {
			accepted += p.flushQueue(q, p.stage[q])
			p.stage[q] = p.stage[q][:0]
		}
	}
	for i := range frames {
		f := &frames[i]
		hash := hashOf(i)
		b, st := p.fill(f.Data, f.TS, hash, flushAll)
		if st != InjectOK {
			continue // already counted
		}
		q := rss.Queue(hash, len(p.queues))
		p.stage[q] = append(p.stage[q], b)
	}
	flushAll()
	return accepted
}

// flushQueue burst-pushes staged buffers onto queue q under the overflow
// policy, returning how many were enqueued. Byte totals are tallied BEFORE
// publishing: once pushed, a buffer belongs to the consumer, which may
// free (and zero) it concurrently.
func (p *Port) flushQueue(q int, bufs []*Buf) int {
	if len(bufs) == 0 {
		return 0
	}
	var nbytes uint64
	for _, b := range bufs {
		nbytes += uint64(b.Len)
	}
	n := p.pushBurst(q, bufs)
	rest := bufs[n:]
	if len(rest) > 0 && p.policy == Block {
		p.blockWait(func() bool {
			k := p.pushBurst(q, rest)
			n += k
			rest = rest[k:]
			return len(rest) == 0
		})
	}
	if len(rest) > 0 {
		p.qstats[q].imissed.Add(uint64(len(rest)))
		for _, b := range rest {
			nbytes -= uint64(b.Len) // still ours: safe to read
			b.Free()
		}
	}
	p.qstats[q].ipackets.Add(uint64(n))
	p.qstats[q].ibytes.Add(nbytes)
	return n
}

// push enqueues b on queue q and wakes the queue's parked consumers
// when it went in. Every producer path pushes through push or pushBurst,
// so no frame can land in a queue whose consumer sleeps on.
func (p *Port) push(q int, b *Buf) bool {
	if !p.queues[q].Push(b) {
		return false
	}
	p.wake(q)
	return true
}

// pushBurst is push for a batch; it returns how many bufs went in.
func (p *Port) pushBurst(q int, bufs []*Buf) int {
	n := p.queues[q].PushBurst(bufs)
	if n > 0 {
		p.wake(q)
	}
	return n
}

// rxWait is one RX queue's parking state: the wake channels of the
// consumers sleeping until a producer enqueues on the queue.
type rxWait struct {
	parked  atomic.Int32 // len(waiters), for the producers' lock-free check
	mu      sync.Mutex
	waiters []chan struct{}
}

// wake signals every consumer parked on queue q. While none is parked —
// always, for a loaded queue — it costs one atomic load.
func (p *Port) wake(q int) {
	w := &p.waits[q]
	if w.parked.Load() == 0 {
		return
	}
	w.mu.Lock()
	for _, ch := range w.waiters {
		select {
		case ch <- struct{}{}:
		default: // already signalled
		}
	}
	clear(w.waiters)
	w.waiters = w.waiters[:0]
	w.parked.Store(0)
	w.mu.Unlock()
}

// Parker lets one RX consumer sleep while its queue is empty instead of
// polling it. Each consumer goroutine owns its Parker; a MultiConsumer
// queue may have several, and a push wakes all that are parked.
type Parker struct {
	port *Port
	q    int
	wake chan struct{}
}

// NewParker returns a Parker for a consumer of queue q, which must be in
// range.
func (p *Port) NewParker(q int) *Parker {
	return &Parker{port: p, q: q, wake: make(chan struct{}, 1)}
}

// Park blocks until a producer enqueues on the queue or ctx is done, and
// returns at once if the queue already holds frames. No push can slip
// between a consumer's last empty poll and its sleep: Park registers the
// consumer (a sequentially consistent store) before it checks the ring
// again, and every push checks for registered consumers (a sequentially
// consistent load) after the ring's own store, so one side sees the
// other. A park/wake cycle does not allocate once the queue's waiter list
// has grown to its consumer count.
func (k *Parker) Park(ctx context.Context) {
	w := &k.port.waits[k.q]
	w.mu.Lock()
	w.waiters = append(w.waiters, k.wake)
	w.parked.Store(int32(len(w.waiters)))
	w.mu.Unlock()
	if k.port.queues[k.q].Len() == 0 {
		select {
		case <-k.wake:
		case <-ctx.Done():
		}
	}
	w.mu.Lock()
	if i := slices.Index(w.waiters, k.wake); i >= 0 {
		w.waiters = slices.Delete(w.waiters, i, i+1)
		w.parked.Store(int32(len(w.waiters)))
	}
	w.mu.Unlock()
	// Unregistered, k.wake gets no further signal; drop one that raced the
	// re-check or ctx so the next Park does not return early.
	select {
	case <-k.wake:
	default:
	}
}

// Parked returns how many consumers are parked on queue q (for
// monitoring; 0 for out-of-range q).
func (p *Port) Parked(q int) int {
	if q < 0 || q >= len(p.waits) {
		return 0
	}
	return int(p.waits[q].parked.Load())
}

// BurstStager batches frames for InjectBurst on behalf of sources that
// reuse their read buffer between packets (the generator, the pcap
// reader): each Add copies the frame into a per-slot staging arena and a
// full batch is injected in one call. Shared by the lossless drive paths
// so their batching semantics can't drift apart.
type BurstStager struct {
	port     *Port
	staging  [][]byte
	frames   []Frame
	accepted int
}

// NewBurstStager creates a stager that flushes every burst frames
// (default 64).
func NewBurstStager(port *Port, burst int) *BurstStager {
	if burst <= 0 {
		burst = 64
	}
	return &BurstStager{
		port:    port,
		staging: make([][]byte, burst),
		frames:  make([]Frame, 0, burst),
	}
}

// Add copies one frame into the batch, injecting the batch when full.
func (s *BurstStager) Add(data []byte, ts int64) {
	i := len(s.frames)
	if cap(s.staging[i]) < len(data) {
		s.staging[i] = make([]byte, len(data))
	}
	s.staging[i] = s.staging[i][:len(data)]
	copy(s.staging[i], data)
	s.frames = append(s.frames, Frame{Data: s.staging[i], TS: ts})
	if len(s.frames) == cap(s.frames) {
		s.Flush()
	}
}

// Flush injects any pending frames immediately (call before pacing sleeps
// and at end of stream).
func (s *BurstStager) Flush() {
	if len(s.frames) > 0 {
		s.accepted += s.port.InjectBurst(s.frames)
		s.frames = s.frames[:0]
	}
}

// Accepted returns the total number of frames the port has accepted.
func (s *BurstStager) Accepted() int { return s.accepted }

// RxBurst polls queue q for up to len(bufs) packets, returning the count.
// This is the rte_eth_rx_burst analogue; workers call it in a poll loop.
// The caller owns returned buffers and must Free them. With the default
// SPSC rings exactly one worker may poll a given queue; MultiConsumer
// ports allow any number.
func (p *Port) RxBurst(q int, bufs []*Buf) (int, error) {
	if q < 0 || q >= len(p.queues) {
		return 0, ErrBadQueue
	}
	return p.queues[q].PopBurst(bufs), nil
}

// QueueLen returns the instantaneous depth of queue q (for monitoring).
func (p *Port) QueueLen(q int) int {
	if q < 0 || q >= len(p.queues) {
		return 0
	}
	return p.queues[q].Len()
}

// QueueStats returns the per-queue counter and ring-introspection snapshot
// for queue q (zero value for out-of-range q).
func (p *Port) QueueStats(q int) QueueStats {
	if q < 0 || q >= len(p.queues) {
		return QueueStats{}
	}
	c := &p.qstats[q]
	r := p.queues[q]
	return QueueStats{
		Ipackets:  c.ipackets.Load(),
		Ibytes:    c.ibytes.Load(),
		Imissed:   c.imissed.Load(),
		Depth:     r.Len(),
		Watermark: r.Watermark(),
		Capacity:  r.Cap(),
	}
}

// Stats returns a snapshot of the port counters (per-queue counters summed).
func (p *Port) Stats() Stats {
	s := Stats{
		Ierrors: p.ierrors.Load(),
		NoMbuf:  p.nombuf.Load(),
	}
	for i := range p.qstats {
		s.Ipackets += p.qstats[i].ipackets.Load()
		s.Ibytes += p.qstats[i].ibytes.Load()
		s.Imissed += p.qstats[i].imissed.Load()
	}
	return s
}
