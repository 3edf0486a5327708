package core

import (
	"context"
	"errors"
	"sync"

	"ruru/internal/nic"
	"ruru/internal/pkt"
)

// Sink receives completed measurements. Emit is called from per-queue worker
// goroutines and must be safe for concurrent use; it should be fast or
// buffering (the mq stage provides a dropping publisher so the fast path
// never blocks, matching the ZeroMQ high-water-mark behaviour).
type Sink interface {
	Emit(m *Measurement)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(m *Measurement)

// Emit implements Sink.
func (f SinkFunc) Emit(m *Measurement) { f(m) }

// TSSink receives continuous RTT samples when timestamp tracking is
// enabled. Same contract as Sink: called from worker goroutines, must not
// block.
type TSSink interface {
	EmitTS(s *TSSample)
}

// TSSinkFunc adapts a function to the TSSink interface.
type TSSinkFunc func(s *TSSample)

// EmitTS implements TSSink.
func (f TSSinkFunc) EmitTS(s *TSSample) { f(s) }

// SeqSink receives sequence-matched RTT samples and loss/quality events
// when seq tracking is enabled. Same contract as Sink: called from worker
// goroutines, must not block.
type SeqSink interface {
	EmitSeq(s *SeqSample)
	EmitLoss(ev *LossEvent)
}

// idleSpin is how many consecutive empty polls a worker busy-spins before
// it parks until injection wakes it. A hot queue refills within
// nanoseconds, so a loaded worker never leaves the spin — the DPDK
// busy-poll behaviour — while an idle worker costs nothing and wakes one
// scheduler hop after the next push.
const idleSpin = 64

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Port is the packet source. Required.
	Port *nic.Port
	// Sink receives measurements. Required.
	Sink Sink
	// Table configures each per-queue handshake table (Queue is
	// overridden per queue).
	Table TableConfig
	// Burst is the RxBurst size (default 64, DPDK's conventional burst).
	Burst int

	// TSSink, when non-nil, enables continuous RTT tracking from TCP
	// timestamp echoes (a per-queue TSTracker beside each handshake
	// table) and receives the samples. TSTable configures the trackers.
	TSSink  TSSink
	TSTable TSConfig

	// SeqSink, when non-nil, enables sequence-matched RTT and
	// retransmit/RTO/dupack loss classification (a per-queue SeqTracker
	// beside each handshake table) and receives samples and loss events.
	// SeqTable configures the trackers; when TSSink is also set and
	// SeqTable.OneDirection is false, SeqTable.DeferTS is forced on so a
	// timestamp-bearing flow is sampled by exactly one tracker.
	SeqSink  SeqSink
	SeqTable SeqConfig

	// NewAdmitter, when non-nil, enables the bounded-memory sketch tier:
	// it is called once per queue at construction and the returned
	// Admitter gates every exact-table insert on that queue (handshake
	// table plus both trackers) and observes every parsed TCP packet.
	// The returned value is handed to the queue's worker goroutine —
	// single-writer from then on, like the tables themselves.
	NewAdmitter func(queue int) Admitter
}

// Engine runs one measurement worker per RSS queue (the paper's "DPDK
// processing threads ... allocated on separate CPU cores").
type Engine struct {
	cfg    EngineConfig
	tables []*HandshakeTable
	admits []Admitter // per-queue, nil slice when the sketch tier is off
	snaps  []statsCell

	mu      sync.Mutex
	running bool
}

// statsCell holds the stats snapshots a worker publishes once per burst,
// so monitors can read live table counters without racing the
// single-writer hot path. The mutex is uncontended in steady state and the
// cost is amortized over a whole burst. The tracker snapshots stay zero
// when the corresponding sink is not configured.
type statsCell struct {
	mu     sync.Mutex
	snap   TableStats
	ts     TSStats
	seq    SeqStats
	sketch SketchStats
}

// NewEngine validates cfg and builds the per-queue state.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Port == nil {
		return nil, errors.New("core: EngineConfig.Port is required")
	}
	if cfg.Sink == nil {
		return nil, errors.New("core: EngineConfig.Sink is required")
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	e := &Engine{cfg: cfg, snaps: make([]statsCell, cfg.Port.NumQueues())}
	for q := 0; q < cfg.Port.NumQueues(); q++ {
		tc := cfg.Table
		tc.Queue = q
		if cfg.NewAdmitter != nil {
			adm := cfg.NewAdmitter(q)
			if adm == nil {
				return nil, errors.New("core: EngineConfig.NewAdmitter returned nil")
			}
			e.admits = append(e.admits, adm)
			tc.Admit = adm
		}
		e.tables = append(e.tables, NewHandshakeTable(tc))
	}
	return e, nil
}

// Tables exposes the per-queue tables (read their stats only from the
// owning worker or after Run returns).
func (e *Engine) Tables() []*HandshakeTable { return e.tables }

// Stats aggregates all per-queue table stats. Safe to call from any
// goroutine at any time: it reads the snapshots each worker publishes at
// burst boundaries (so values can trail the hot path by up to one burst).
func (e *Engine) Stats() TableStats {
	var total TableStats
	for q := range e.snaps {
		cell := &e.snaps[q]
		cell.mu.Lock()
		s := cell.snap
		cell.mu.Unlock()
		total.Packets += s.Packets
		total.SYNs += s.SYNs
		total.SYNRetrans += s.SYNRetrans
		total.SYNACKs += s.SYNACKs
		total.OrphanSYNACKs += s.OrphanSYNACKs
		total.Completed += s.Completed
		total.InvalidACKs += s.InvalidACKs
		total.MidstreamACKs += s.MidstreamACKs
		total.Aborted += s.Aborted
		total.Expired += s.Expired
		total.ExpiredAwait += s.ExpiredAwait
		total.TableFull += s.TableFull
		total.Occupancy += s.Occupancy
	}
	return total
}

// TSStats aggregates the per-queue timestamp-tracker stats. Zero when
// EngineConfig.TSSink is unset. Same snapshot semantics as Stats.
func (e *Engine) TSStats() TSStats {
	var total TSStats
	for q := range e.snaps {
		cell := &e.snaps[q]
		cell.mu.Lock()
		s := cell.ts
		cell.mu.Unlock()
		total.Packets += s.Packets
		total.NoTS += s.NoTS
		total.Inserted += s.Inserted
		total.Samples += s.Samples
		total.Unmatched += s.Unmatched
		total.Expired += s.Expired
		total.TableFull += s.TableFull
		total.Occupancy += s.Occupancy
	}
	return total
}

// SeqStats aggregates the per-queue seq-tracker stats. Zero when
// EngineConfig.SeqSink is unset. Same snapshot semantics as Stats.
func (e *Engine) SeqStats() SeqStats {
	var total SeqStats
	for q := range e.snaps {
		cell := &e.snaps[q]
		cell.mu.Lock()
		s := cell.seq
		cell.mu.Unlock()
		total.Packets += s.Packets
		total.Inserted += s.Inserted
		total.Samples += s.Samples
		total.OneDirSamples += s.OneDirSamples
		total.Unmatched += s.Unmatched
		total.Retrans += s.Retrans
		total.RTO += s.RTO
		total.DupACK += s.DupACK
		total.Expired += s.Expired
		total.TableFull += s.TableFull
		total.Occupancy += s.Occupancy
	}
	return total
}

// SketchStats aggregates the per-queue sketch-tier ledgers. Zero when
// EngineConfig.NewAdmitter is unset. Counters and byte gauges sum across
// queues; the error bounds (EpsilonBytes, CollisionDepth) take the worst
// queue, since each queue's sketch answers only for its own flows.
func (e *Engine) SketchStats() SketchStats {
	var total SketchStats
	for q := range e.snaps {
		cell := &e.snaps[q]
		cell.mu.Lock()
		s := cell.sketch
		cell.mu.Unlock()
		total.Promoted += s.Promoted
		total.Demoted += s.Demoted
		total.SketchOnlyFlows += s.SketchOnlyFlows
		total.LiveBytes += s.LiveBytes
		total.SketchBytes += s.SketchBytes
		total.BudgetBytes += s.BudgetBytes
		if s.EpsilonBytes > total.EpsilonBytes {
			total.EpsilonBytes = s.EpsilonBytes
		}
		if s.CollisionDepth > total.CollisionDepth {
			total.CollisionDepth = s.CollisionDepth
		}
	}
	return total
}

// Run polls every queue until ctx is cancelled. It blocks; cancel the
// context to stop. Packets still queued at cancellation are drained.
func (e *Engine) Run(ctx context.Context) error {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return errors.New("core: engine already running")
	}
	e.running = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.running = false
		e.mu.Unlock()
	}()

	var wg sync.WaitGroup
	for q := 0; q < e.cfg.Port.NumQueues(); q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			e.runQueue(ctx, q)
		}(q)
	}
	wg.Wait()
	return ctx.Err()
}

// runQueue is the per-core poll loop: RxBurst → parse → handshake table
// (and, when enabled, the timestamp and sequence trackers).
func (e *Engine) runQueue(ctx context.Context, q int) {
	var (
		parser  pkt.Parser
		sum     pkt.Summary
		m       Measurement
		ts      TSSample
		ss      SeqSample
		lev     LossEvent
		table   = e.tables[q]
		tracker *TSTracker
		seqTrk  *SeqTracker
		adm     Admitter
		bufs    = make([]*nic.Buf, e.cfg.Burst)
		parker  = e.cfg.Port.NewParker(q)
	)
	if e.admits != nil {
		adm = e.admits[q]
	}
	if e.cfg.TSSink != nil {
		tc := e.cfg.TSTable
		tc.Queue = q
		tc.Admit = adm
		tracker = NewTSTracker(tc)
	}
	if e.cfg.SeqSink != nil {
		sc := e.cfg.SeqTable
		sc.Queue = q
		sc.Admit = adm
		if tracker != nil && !sc.OneDirection {
			sc.DeferTS = true
		}
		seqTrk = NewSeqTracker(sc)
	}
	processBurst := func(n int) {
		for i := 0; i < n; i++ {
			b := bufs[i]
			if err := parser.Parse(b.Bytes(), &sum); err == nil && sum.IsTCP() {
				if adm != nil {
					// The sketch observes every TCP packet before the
					// tables rule on it, so an Admit for this packet's
					// flow sees its volume already accounted.
					adm.Observe(&sum)
				}
				if table.Process(&sum, b.Timestamp, b.RSSHash, &m) {
					e.cfg.Sink.Emit(&m)
				}
				if tracker != nil && tracker.Process(&sum, b.Timestamp, b.RSSHash, &ts) {
					e.cfg.TSSink.EmitTS(&ts)
				}
				if seqTrk != nil {
					gotSample, gotLoss := seqTrk.Process(&sum, b.Timestamp, b.RSSHash, &ss, &lev)
					if gotSample {
						e.cfg.SeqSink.EmitSeq(&ss)
					}
					if gotLoss {
						e.cfg.SeqSink.EmitLoss(&lev)
					}
				}
			}
			b.Free()
		}
	}
	// publish copies the table and tracker counters into this queue's
	// monitoring cell: one uncontended lock per burst instead of atomics
	// per packet.
	publish := func() {
		snap := table.Stats() // we are the table's single writer
		cell := &e.snaps[q]
		cell.mu.Lock()
		cell.snap = snap
		if tracker != nil {
			cell.ts = tracker.Stats()
		}
		if seqTrk != nil {
			cell.seq = seqTrk.Stats()
		}
		if adm != nil {
			cell.sketch = adm.Stats()
		}
		cell.mu.Unlock()
		if adm != nil {
			// Refresh the heavy-hitter snapshot readers consume (the tier
			// throttles the copy internally).
			adm.Publish(false)
		}
	}
	defer func() {
		if adm != nil {
			adm.Publish(true) // final unthrottled snapshot for readers
		}
		publish()
	}()
	idle := 0
	for {
		n, err := e.cfg.Port.RxBurst(q, bufs)
		if err != nil {
			return
		}
		processBurst(n)
		if n > 0 {
			publish()
			idle = 0
			continue
		}
		select {
		case <-ctx.Done():
			// Final drain: whatever was enqueued before cancel.
			for {
				n, _ := e.cfg.Port.RxBurst(q, bufs)
				if n == 0 {
					return
				}
				processBurst(n)
			}
		default:
			idle++
			if idle >= idleSpin {
				parker.Park(ctx)
				idle = 0
			}
		}
	}
}
