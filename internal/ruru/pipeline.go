// Package ruru assembles the full pipeline from the paper's Figure 2:
//
//	traffic → [nic: RSS → per-core queues] → [core: handshake engine]
//	        → (mq "ZeroMQ" bus, raw topic) → [analytics: geo enrich + anonymize]
//	        → (mq bus, enriched topic) → { tsdb sink, WebSocket hub,
//	                                        anomaly detectors, arc feed }
//
// This is the public-facing entry point a downstream user embeds: construct
// a Pipeline, inject traffic into Pipeline.Port (from the generator, a pcap
// trace, or any frame source), and consume results from the TSDB, the
// WebSocket hub, the HTTP API, or the anomaly event streams.
package ruru

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/anomaly"
	"ruru/internal/core"
	"ruru/internal/fed"
	"ruru/internal/geo"
	"ruru/internal/mq"
	"ruru/internal/nic"
	"ruru/internal/sketch"
	"ruru/internal/tsdb"
	"ruru/internal/ws"
)

// Config configures a Pipeline. Zero values get production-shaped defaults.
type Config struct {
	// GeoDB is the geolocation database. Required.
	GeoDB *geo.DB

	// Queues is the number of RSS queues / measurement cores (default 4).
	Queues int
	// QueueDepth is the per-queue ring size (default 4096).
	QueueDepth int
	// PoolSize is the packet mempool size (default 16384 buffers).
	PoolSize int
	// BufSize is the packet buffer size (default 2048).
	BufSize int
	// Burst is the RxBurst size (default 64).
	Burst int

	// Overflow selects what injection does when an RX queue is full:
	// nic.Drop (default, NIC-faithful: frame lost, counted Imissed) or
	// nic.Block (lossless sources: injection waits for queue space).
	Overflow nic.OverflowPolicy
	// BlockTimeout bounds how long Block-policy injection waits (zero:
	// indefinitely).
	BlockTimeout time.Duration
	// MultiConsumer switches RX queues to the multi-consumer-safe CAS
	// rings so several workers may drain one queue.
	MultiConsumer bool

	// TableCapacity is the per-queue handshake table size (default 64k).
	TableCapacity int
	// HandshakeTimeout evicts incomplete handshakes (default 10s).
	HandshakeTimeout int64

	// FlowTableBytes, when > 0, enables the bounded-memory sketch tier
	// and is the hard byte cap across all per-flow state: per-queue
	// count-min sketches and heavy-hitter summaries (fixed overhead), the
	// city-pair latency summary, and every exact table entry (handshake
	// plus both continuous-RTT trackers) charged at its struct size. When
	// the cap is reached, new flows live sketch-only — volume still
	// estimated, heavy hitters still ranked, but no per-flow record —
	// and the induced error is surfaced in Stats.Sketch. Must be at
	// least MinFlowTableBytes(Queues). Zero keeps exact-only mode.
	FlowTableBytes int64

	// EnrichWorkers is the analytics pool size (default 4).
	EnrichWorkers int

	// SinkWorkers is the number of sharded sink workers draining the
	// enriched stream (default 4). Measurements are partitioned by a hash
	// of the src_city→dst_city pair, so every anomaly-detector key and
	// every TSDB latency series keeps single-worker affinity.
	SinkWorkers int
	// SinkBatch is the maximum measurements one sink worker drains per
	// wakeup — one TSDB batch write and at most one coalesced WebSocket
	// frame per batch (default 64).
	SinkBatch int

	// TSDB options. ShardDuration is the width of one storage time shard
	// and Retention the raw-point horizon, both in nanoseconds of the
	// data's own clock (zero values keep tsdb defaults: 1h shards,
	// keep-everything).
	ShardDuration int64
	Retention     int64
	// DBStripes is the TSDB lock-stripe count: concurrent sink workers
	// contend only within a stripe (default 8; 1 restores a single global
	// write lock).
	DBStripes int
	// Rollups configures the TSDB's multi-resolution downsampling tiers
	// (see tsdb.RollupTier): every stored measurement additionally feeds
	// each tier's pre-aggregates, and aligned dashboard queries are served
	// from the coarsest usable tier instead of re-scanning raw points.
	// Nil disables rollups; tsdb.DefaultRollups() gives the standard
	// 1s/10s/1m ladder.
	Rollups []tsdb.RollupTier
	// Persist enables durable TSDB storage when Persist.Dir is non-empty:
	// measurements are written through a WAL, checkpointed periodically,
	// and restored (checkpoint + WAL replay, rollup tiers rebuilt) the
	// next time a pipeline opens the same directory. New fails if the
	// directory is locked by another live process. Zero value keeps the
	// TSDB in-memory. See tsdb.PersistOptions for the fsync/checkpoint
	// knobs and docs/OPERATIONS.md for tuning guidance.
	Persist tsdb.PersistOptions

	// QueryCacheBytes, when > 0, enables the TSDB's query result cache with
	// that byte budget (LRU, bit-exact with uncached execution, incremental
	// tail refresh for advancing dashboard windows — see tsdb.Options).
	// Zero disables caching.
	QueryCacheBytes int64

	// HubQueue is the per-WebSocket-client queue depth (default 256).
	HubQueue int

	// RollupStreamWidth is the bucket width (ns) of the /ws?stream=rollup
	// delta feed (default 1s, matching the standard ladder's finest tier).
	RollupStreamWidth int64
	// RollupStreamInterval is how often accumulated rollup deltas are
	// coalesced into one frame for the rollup audience (default 250ms).
	RollupStreamInterval time.Duration

	// Detector configs (defaults applied by the anomaly package).
	Spike anomaly.SpikeConfig
	Flood anomaly.FloodConfig
	Surge anomaly.SurgeConfig
	// SNMPInterval enables the conventional-monitoring baseline poller
	// when > 0 (used by experiment E4).
	SNMPInterval int64

	// ArcsBuffer is how many recent measurements the live-map arc feed
	// retains (default 4096).
	ArcsBuffer int

	// TrackTimestamps enables continuous RTT measurement from TCP
	// timestamp echoes (the pping-style extension). Samples are
	// geo-enriched (IPs dropped, like measurements) and written to the
	// TSDB measurement "rtt_stream" with tags echoer_city/peer_city and
	// mode=ts.
	TrackTimestamps bool

	// TrackSeq enables continuous RTT from data→ACK sequence matching
	// plus retransmit/RTO/dupack loss classification — the flows the
	// timestamp tracker cannot see (no TS option negotiated). Samples
	// join "rtt_stream" tagged mode=seq; loss events are written to the
	// "tcp_loss" measurement with tags src_city/dst_city/kind. When both
	// trackers run, timestamp-bearing flows are sampled only by the
	// timestamp tracker (no double counting) while loss classification
	// stays on for every flow.
	TrackSeq bool
	// OneDirection switches the seq tracker to asymmetric-tap mode for
	// taps that see only one side of each conversation: samples become
	// round-trip *response* latencies self-paired within the visible
	// direction, tagged mode=onedir. Implies TrackSeq.
	OneDirection bool

	// RemoteWrite, when Addr is set, turns this pipeline into a federation
	// probe: every enriched measurement additionally streams to a central
	// aggregator as acked, spooled, CRC-framed batches (see internal/fed).
	// The local TSDB keeps working — the probe remains fully queryable on
	// its own.
	RemoteWrite fed.ProbeConfig
	// Federate, when Listen is set, turns this pipeline into a federation
	// aggregator: remote probes' measurements are ingested into DB through
	// the normal WriteBatch→rollup→WAL path, each series tagged
	// probe=<probe id>, deduplicated by per-probe sequence number.
	Federate fed.AggConfig
}

// Measurement topics re-exported for consumers wiring extra modules in.
const (
	TopicRaw      = analytics.TopicRaw
	TopicEnriched = analytics.TopicEnriched
)

// pairTopKeys is the capacity of the city-pair latency summary: enough for
// every pair among ~16 cities, bounded regardless of traffic.
const pairTopKeys = 256

// MinFlowTableBytes returns the smallest Config.FlowTableBytes able to host
// the sketch tier for the given queue count: each queue's minimum tier
// (smallest count-min sketch plus smallest heavy-hitter summaries) plus the
// fixed city-pair summary. At exactly this budget the exact tables get a
// zero byte allowance — every flow lives sketch-only — which tests use as a
// deterministic floor.
func MinFlowTableBytes(queues int) int64 {
	if queues <= 0 {
		queues = 4
	}
	return int64(queues)*sketch.MinBudgetBytes() + sketch.NewTopK[string](pairTopKeys).Bytes()
}

// Pipeline is an assembled Ruru instance. The exported stage fields are
// the embedding points for callers: inject traffic into Port, read
// aggregates from DB, attach WebSocket clients via Hub, subscribe to Bus
// topics for custom modules. Each stage is individually safe for
// concurrent use (see ARCHITECTURE.md for the per-package contracts); the
// fields themselves must be treated as read-only after New returns.
type Pipeline struct {
	cfg Config

	Pool     *nic.Mempool        // packet buffer pool shared by all queues
	Port     *nic.Port           // ingest: Inject*/RxBurst and per-queue stats
	Engine   *core.Engine        // per-queue handshake measurement workers
	Bus      *mq.Bus             // PUB/SUB bus carrying raw + enriched topics
	Enricher *analytics.Enricher // geo/AS enrichment worker pool
	DB       *tsdb.DB            // embedded TSDB (queries, snapshot, rollups)
	Hub      *ws.Hub             // WebSocket fan-out to live frontends
	Delta    *RollupDelta        // rollup-delta accumulator behind /ws?stream=rollup

	Spikes *anomaly.SpikeBank     // per-city-pair latency spike detectors
	Flood  *anomaly.FloodDetector // SYN-flood detector (expiry-fed)
	Surge  *anomaly.SurgeDetector // per-pair connection-rate surge detector
	SNMP   *anomaly.SNMPPoller    // coarse "conventional monitoring" baseline

	Remote *fed.Probe      // remote-write client (nil unless Config.RemoteWrite)
	Agg    *fed.Aggregator // federation endpoint (nil unless Config.Federate)

	// Sketch holds the per-queue bounded-memory flow tiers (nil unless
	// Config.FlowTableBytes > 0). Each tier is owned by its queue worker;
	// external readers may only use Snapshot() (see /api/topk).
	Sketch []*sketch.FlowTier

	// pairTop is the bounded per-(src_city,dst_city) latency summary, fed
	// by the sink workers under pairTopMu (a leaf lock: nothing is ever
	// acquired while holding it — see internal/lint spec).
	pairTop   *sketch.TopK[string]
	pairTopMu sync.Mutex

	floodMu sync.Mutex
	snmpMu  sync.Mutex

	// spikeEvents keeps the most recent spike events. It is bounded because
	// a large permanent latency step (a path change) keeps every later
	// measurement on its pair anomalous by design.
	spikeEventsMu      sync.Mutex
	spikeEvents        recentRing[anomaly.Event]
	spikeEventsEvicted atomic.Uint64

	tsSamples  atomic.Uint64
	seqSamples atomic.Uint64
	lossPoints atomic.Uint64

	sinkSub          *mq.Subscription
	sinkShards       []*sinkShard
	sinkDecodeErrors atomic.Uint64
	sinkWriteErrors  atomic.Uint64
}

// sinkShard is the state owned by one sink worker: its routing channel,
// the worker-private write scratch (SeriesRef cache keyed by geo/AS
// identity, reusable RefPoint/value buffers — touched only by the owning
// worker, never under mu), and the mu-guarded state shared with Feed and
// RecentArcs (arc ring, WebSocket frame buffer).
type sinkShard struct {
	ch chan sinkItem

	// Worker-private: per-identity interned TSDB handles and batch scratch.
	refs   map[string]tsdb.SeriesRef
	keyBuf []byte
	rpts   []tsdb.RefPoint
	vals   []float64

	mu    sync.Mutex
	arcs  recentRing[analytics.Enriched]
	frame []byte // live WS frame scratch (encoded under mu)
}

// New assembles a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.GeoDB == nil {
		return nil, errors.New("ruru: Config.GeoDB is required")
	}
	if cfg.Queues <= 0 {
		cfg.Queues = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 16384
	}
	if cfg.BufSize <= 0 {
		cfg.BufSize = 2048
	}
	if cfg.TableCapacity <= 0 {
		cfg.TableCapacity = 1 << 16
	}
	if cfg.EnrichWorkers <= 0 {
		cfg.EnrichWorkers = 4
	}
	if cfg.SinkWorkers <= 0 {
		cfg.SinkWorkers = 4
	}
	if cfg.SinkBatch <= 0 {
		cfg.SinkBatch = 64
	}
	if cfg.ArcsBuffer <= 0 {
		cfg.ArcsBuffer = 4096
	}

	p := &Pipeline{cfg: cfg}
	p.Pool = nic.NewMempool(cfg.PoolSize, cfg.BufSize)
	var err error
	p.Port, err = nic.NewPort(nic.PortConfig{
		Queues: cfg.Queues, QueueDepth: cfg.QueueDepth, Pool: p.Pool,
		Policy: cfg.Overflow, BlockTimeout: cfg.BlockTimeout,
		MultiConsumer: cfg.MultiConsumer,
	})
	if err != nil {
		return nil, err
	}
	p.Bus = mq.NewBus()
	p.Flood = anomaly.NewFloodDetector(cfg.Flood)
	p.Spikes = anomaly.NewSpikeBank(cfg.Spike, 0)
	p.spikeEvents = newRecentRing[anomaly.Event](spikeEventCap)
	p.Surge = anomaly.NewSurgeDetector(cfg.Surge)
	if cfg.SNMPInterval > 0 {
		p.SNMP = anomaly.NewSNMPPoller(cfg.SNMPInterval)
	}

	sink := analytics.NewBusSink(p.Bus)
	engCfg := core.EngineConfig{
		Port: p.Port,
		Sink: sink,
		Table: core.TableConfig{
			Capacity: cfg.TableCapacity,
			Timeout:  cfg.HandshakeTimeout,
			OnExpire: p.onExpire,
		},
		Burst: cfg.Burst,
	}
	if cfg.TrackTimestamps {
		engCfg.TSSink = core.TSSinkFunc(p.onTSSample)
		engCfg.TSTable = core.TSConfig{
			Capacity: cfg.TableCapacity,
			Timeout:  cfg.HandshakeTimeout,
		}
	}
	if cfg.TrackSeq || cfg.OneDirection {
		engCfg.SeqSink = seqSinkAdapter{p}
		engCfg.SeqTable = core.SeqConfig{
			Capacity:     cfg.TableCapacity,
			Timeout:      cfg.HandshakeTimeout,
			OneDirection: cfg.OneDirection,
			// DeferTS is decided by the engine: set iff the timestamp
			// tracker also runs and the tap sees both directions.
		}
	}
	if cfg.FlowTableBytes > 0 {
		if min := MinFlowTableBytes(cfg.Queues); cfg.FlowTableBytes < min {
			return nil, fmt.Errorf("ruru: Config.FlowTableBytes %d below minimum %d for %d queues",
				cfg.FlowTableBytes, min, cfg.Queues)
		}
		p.pairTop = sketch.NewTopK[string](pairTopKeys)
		perQ := (cfg.FlowTableBytes - p.pairTop.Bytes()) / int64(cfg.Queues)
		p.Sketch = make([]*sketch.FlowTier, cfg.Queues)
		for q := range p.Sketch {
			tier, terr := sketch.NewFlowTier(sketch.TierConfig{BudgetBytes: perQ, Queue: q})
			if terr != nil {
				return nil, fmt.Errorf("ruru: sketch tier %d: %w", q, terr)
			}
			p.Sketch[q] = tier
		}
		engCfg.NewAdmitter = func(q int) core.Admitter { return p.Sketch[q] }
	}
	p.Engine, err = core.NewEngine(engCfg)
	if err != nil {
		return nil, err
	}
	p.Enricher, err = analytics.NewEnricher(analytics.Config{
		DB: cfg.GeoDB, Bus: p.Bus, Workers: cfg.EnrichWorkers, HWM: 1 << 15,
	})
	if err != nil {
		return nil, err
	}
	var persist *tsdb.PersistOptions
	if cfg.Persist.Dir != "" {
		pp := cfg.Persist
		persist = &pp
	}
	p.DB, err = tsdb.OpenDB(tsdb.Options{
		ShardDuration: cfg.ShardDuration, Retention: cfg.Retention,
		Stripes: cfg.DBStripes, Rollups: cfg.Rollups, Persist: persist,
		QueryCache: cfg.QueryCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	p.Hub = ws.NewHub(cfg.HubQueue)
	p.Delta = NewRollupDelta(cfg.RollupStreamWidth)
	p.sinkShards = make([]*sinkShard, cfg.SinkWorkers)
	for i := range p.sinkShards {
		p.sinkShards[i] = &sinkShard{
			ch:   make(chan sinkItem, sinkShardDepth),
			refs: make(map[string]tsdb.SeriesRef),
			arcs: newRecentRing[analytics.Enriched](cfg.ArcsBuffer),
		}
	}

	p.sinkSub, err = p.Bus.Subscribe(TopicEnriched, 1<<15)
	if err != nil {
		return nil, err
	}
	if cfg.RemoteWrite.Addr != "" {
		p.Remote, err = fed.NewProbe(cfg.RemoteWrite, p.Bus)
		if err != nil {
			return nil, errors.Join(err, p.DB.Close())
		}
	}
	if cfg.Federate.Listen != "" {
		p.Agg, err = fed.NewAggregator(cfg.Federate, p.DB)
		if err != nil {
			if p.Remote != nil {
				err = errors.Join(err, p.Remote.Close())
			}
			return nil, errors.Join(err, p.DB.Close())
		}
	}
	return p, nil
}

// onExpire feeds incomplete-handshake evictions to the flood detector.
// Called from queue workers; the detector is guarded by a mutex (expiries
// are rare relative to packets).
func (p *Pipeline) onExpire(lastTS int64, awaitingSYNACK bool) {
	if !awaitingSYNACK {
		return
	}
	p.floodMu.Lock()
	p.Flood.ObserveUnanswered(lastTS)
	p.floodMu.Unlock()
}

// onTSSample stores one continuous RTT sample: geo-enriched, anonymized
// (only city/country tags reach storage, like measurements), written to the
// "rtt_stream" measurement. Called from queue workers; the TSDB write path
// has its own lock.
func (p *Pipeline) onTSSample(s *core.TSSample) {
	echoCity, peerCity := "Unknown", "Unknown"
	if rec, ok := p.cfg.GeoDB.Lookup(s.Echoer); ok {
		echoCity = rec.City
	}
	if rec, ok := p.cfg.GeoDB.Lookup(s.Peer); ok {
		peerCity = rec.City
	}
	pt := tsdb.Point{
		Name: "rtt_stream",
		Tags: []tsdb.Tag{
			{Key: "echoer_city", Value: echoCity},
			{Key: "peer_city", Value: peerCity},
			{Key: "mode", Value: "ts"},
		},
		Fields: []tsdb.Field{{Key: "rtt_ms", Value: float64(s.RTT) / 1e6}},
		Time:   s.At,
	}
	if err := p.DB.Write(&pt); err != nil {
		// Same ledger as the sink: a lost sample (DB closing under a
		// late queue worker) must show up in DBWriteErrors, not vanish.
		p.sinkWriteErrors.Add(1)
		return
	}
	p.tsSamples.Add(1)
}

// seqSinkAdapter routes seq-tracker output from the engine's queue workers
// into the pipeline's storage path.
type seqSinkAdapter struct{ p *Pipeline }

func (a seqSinkAdapter) EmitSeq(s *core.SeqSample) { a.p.onSeqSample(s) }

func (a seqSinkAdapter) EmitLoss(ev *core.LossEvent) { a.p.onLossEvent(ev) }

// onSeqSample stores one sequence-matched RTT sample into the same
// "rtt_stream" measurement as timestamp samples — geo-enriched, IPs
// dropped — distinguished by the mode tag (seq, or onedir for
// asymmetric-tap estimates), so rollups, anomaly detection, dashboards and
// federation consume the new series unchanged. The ACK sender (for onedir,
// the invisible peer) fills the echoer_city position: both trackers put
// the measured side of the path in that tag.
func (p *Pipeline) onSeqSample(s *core.SeqSample) {
	respCity, peerCity := "Unknown", "Unknown"
	if rec, ok := p.cfg.GeoDB.Lookup(s.Responder); ok {
		respCity = rec.City
	}
	if rec, ok := p.cfg.GeoDB.Lookup(s.Peer); ok {
		peerCity = rec.City
	}
	mode := "seq"
	if s.OneDir {
		mode = "onedir"
	}
	pt := tsdb.Point{
		Name: "rtt_stream",
		Tags: []tsdb.Tag{
			{Key: "echoer_city", Value: respCity},
			{Key: "peer_city", Value: peerCity},
			{Key: "mode", Value: mode},
		},
		Fields: []tsdb.Field{{Key: "rtt_ms", Value: float64(s.RTT) / 1e6}},
		Time:   s.At,
	}
	if err := p.DB.Write(&pt); err != nil {
		p.sinkWriteErrors.Add(1)
		return
	}
	p.seqSamples.Add(1)
}

// onLossEvent stores one classified loss/quality event as a "tcp_loss"
// point (count=1 per event, so any time-window sum is an event count),
// tagged with the anonymized endpoints and the class: retrans, rto or
// dupack.
func (p *Pipeline) onLossEvent(ev *core.LossEvent) {
	srcCity, dstCity := "Unknown", "Unknown"
	if rec, ok := p.cfg.GeoDB.Lookup(ev.Src); ok {
		srcCity = rec.City
	}
	if rec, ok := p.cfg.GeoDB.Lookup(ev.Dst); ok {
		dstCity = rec.City
	}
	pt := tsdb.Point{
		Name: "tcp_loss",
		Tags: []tsdb.Tag{
			{Key: "src_city", Value: srcCity},
			{Key: "dst_city", Value: dstCity},
			{Key: "kind", Value: ev.Kind.String()},
		},
		Fields: []tsdb.Field{{Key: "count", Value: 1}},
		Time:   ev.At,
	}
	if err := p.DB.Write(&pt); err != nil {
		p.sinkWriteErrors.Add(1)
		return
	}
	p.lossPoints.Add(1)
}

// Run operates the pipeline until ctx is cancelled. It returns ctx.Err().
func (p *Pipeline) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	wg.Add(3 + len(p.sinkShards))
	go func() {
		defer wg.Done()
		p.Engine.Run(ctx)
	}()
	go func() {
		defer wg.Done()
		p.Enricher.Run(ctx)
	}()
	go func() {
		defer wg.Done()
		p.runSinkDispatcher(ctx)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.runRollupFlusher(ctx)
	}()
	for _, sh := range p.sinkShards {
		go func(sh *sinkShard) {
			defer wg.Done()
			p.runSinkWorker(ctx, sh)
		}(sh)
	}
	if p.Remote != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Remote.Run(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// runRollupFlusher coalesces accumulated rollup deltas into one frame per
// interval for the rollup-stream audience. A final flush on shutdown is
// deliberately skipped: the Hub is closing with the pipeline anyway.
func (p *Pipeline) runRollupFlusher(ctx context.Context) {
	iv := p.cfg.RollupStreamInterval
	if iv <= 0 {
		iv = 250 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.FlushRollupStream()
		}
	}
}

// FlushRollupStream immediately coalesces accumulated rollup deltas into
// one frame and broadcasts it to the rollup-stream audience (no-op when
// nothing accumulated). Called by the interval flusher; exported for
// end-of-trace harnesses that want the tail without waiting an interval.
func (p *Pipeline) FlushRollupStream() {
	if data := p.Delta.Flush(); data != nil {
		p.Hub.BroadcastRollup(data)
	}
}

// spikeEventCap is how many of the most recent spike events the pipeline
// retains; older ones are counted in Stats.SpikeEvicted.
const spikeEventCap = 4096

// SpikeEvents returns the retained latency-spike detections, oldest first:
// the last spikeEventCap of them.
func (p *Pipeline) SpikeEvents() []anomaly.Event {
	p.spikeEventsMu.Lock()
	defer p.spikeEventsMu.Unlock()
	return p.spikeEvents.ordered()
}

// FloodEvents returns SYN-flood detections so far (thread-safe snapshot).
func (p *Pipeline) FloodEvents() []anomaly.Event {
	p.floodMu.Lock()
	defer p.floodMu.Unlock()
	evs := p.Flood.Events()
	out := make([]anomaly.Event, len(evs))
	copy(out, evs)
	return out
}

// FlushDetectors closes all open detector buckets (end of trace).
func (p *Pipeline) FlushDetectors() {
	p.floodMu.Lock()
	p.Flood.Flush()
	p.floodMu.Unlock()
	p.Surge.Flush()
	if p.SNMP != nil {
		p.snmpMu.Lock()
		p.SNMP.Flush()
		p.snmpMu.Unlock()
	}
}

// Stats is a full-pipeline counter snapshot. Together the sink counters
// account for every enriched measurement: while the pipeline runs, each one
// published on the bus is either stored (DBPoints), lost at the sink
// subscription's high-water mark (SinkDrop), malformed (SinkDecodeErrors),
// or behind the retention horizon at write time (DBDropped) — no steady-
// state loss class is silent. The ledger balances once the sink has drained;
// cancelling Run abandons whatever is still queued inside the sink stage
// uncounted (shutdown, like any crash, loses in-flight work).
type Stats struct {
	Port     nic.Stats
	Queues   []nic.QueueStats // per-RX-queue counters and ring watermarks
	Engine   core.TableStats
	Enricher analytics.Stats
	BusPub   uint64
	BusDrop  uint64
	HubSent  uint64
	HubDrop  uint64
	// RollupFrames counts coalesced delta frames broadcast to the
	// /ws?stream=rollup audience and RollupCells the per-(pair, bucket)
	// cells they carried — the read-side cost of the rollup feed, which is
	// O(cells per interval) regardless of event rate or client count.
	RollupFrames uint64
	RollupCells  uint64
	DBPoints     uint64
	// DBDropped counts points the TSDB refused at write time because they
	// were older than the retention horizon (previously discarded from
	// the snapshot entirely).
	DBDropped uint64
	// SinkDecodeErrors counts enriched bus messages the sink could not
	// decode (previously swallowed by a bare continue).
	SinkDecodeErrors uint64
	// SinkDrop counts enriched messages lost at the sink subscription's
	// high-water mark — the collector-can't-keep-up signal (previously
	// never surfaced).
	SinkDrop uint64
	// DBWriteErrors counts measurements whose TSDB write failed: a Close
	// racing a sink worker, or — on a persistent pipeline — a WAL append
	// failure (full disk) refusing the write. Counted so neither loss
	// class is silent.
	DBWriteErrors uint64
	TSSamples     uint64 // timestamp-echo RTT samples stored (when TrackTimestamps)
	// SpikeEvicted counts latency-spike events dropped, oldest first,
	// from the bounded list SpikeEvents and /api/anomalies serve (the
	// most recent 4096).
	SpikeEvicted uint64
	// SeqSamples counts sequence-matched RTT samples stored (mode=seq and
	// mode=onedir) and LossPoints the stored tcp_loss events, both part of
	// the same must-not-vanish accounting as DBWriteErrors.
	SeqSamples uint64
	LossPoints uint64
	// TSRTT and Seq are the trackers' own counters (per-queue snapshots
	// aggregated at burst boundaries, zero when the tracker is off):
	// insert/match/unmatched/eviction behaviour plus the seq tracker's
	// retrans/rto/dupack classification totals.
	TSRTT core.TSStats
	Seq   core.SeqStats
	// Sketch is the bounded-memory tier's ledger (zero with BudgetBytes=0
	// when Config.FlowTableBytes is unset): promotions/demotions, flows
	// held sketch-only because the byte cap was reached, the induced error
	// bound, and the live/fixed byte accounting against the budget.
	Sketch core.SketchStats
	// QueryCache reports the TSDB query result cache counters. Zero value
	// with Enabled=false when Config.QueryCacheBytes is unset.
	QueryCache tsdb.CacheStats
	// Persist reports the TSDB durability counters (WAL appends/fsyncs,
	// what the last restart recovered, checkpoint age). Zero value with
	// Enabled=false when Config.Persist is unset.
	Persist tsdb.PersistStats
	// Remote reports the federation probe's remote-write counters —
	// connection health, acked/unacked/resent batches, spool footprint and
	// the backpressure loss class (Dropped). Enabled=false without
	// Config.RemoteWrite.
	Remote fed.ProbeStats
	// Fed reports the federation aggregator: totals plus per-probe
	// liveness, lag and sequence-dedup counters. Enabled=false without
	// Config.Federate.
	Fed fed.AggStats
}

// Stats snapshots every stage.
func (p *Pipeline) Stats() Stats {
	pub, drop := p.Bus.Stats()
	sent, hdrop := p.Hub.Stats()
	rframes, rcells := p.Delta.Stats()
	written, dbDropped := p.DB.WriteStats()
	queues := make([]nic.QueueStats, p.Port.NumQueues())
	for q := range queues {
		queues[q] = p.Port.QueueStats(q)
	}
	var remote fed.ProbeStats
	if p.Remote != nil {
		remote = p.Remote.Stats()
	}
	var agg fed.AggStats
	if p.Agg != nil {
		agg = p.Agg.Stats()
	}
	return Stats{
		Port:             p.Port.Stats(),
		Queues:           queues,
		Engine:           p.Engine.Stats(),
		Enricher:         p.Enricher.Stats(),
		BusPub:           pub,
		BusDrop:          drop,
		HubSent:          sent,
		HubDrop:          hdrop,
		RollupFrames:     rframes,
		RollupCells:      rcells,
		DBPoints:         written,
		DBDropped:        dbDropped,
		SinkDecodeErrors: p.sinkDecodeErrors.Load(),
		SinkDrop:         p.sinkSub.Dropped(),
		DBWriteErrors:    p.sinkWriteErrors.Load(),
		TSSamples:        p.tsSamples.Load(),
		SpikeEvicted:     p.spikeEventsEvicted.Load(),
		SeqSamples:       p.seqSamples.Load(),
		LossPoints:       p.lossPoints.Load(),
		TSRTT:            p.Engine.TSStats(),
		Seq:              p.Engine.SeqStats(),
		Sketch:           p.Engine.SketchStats(),
		QueryCache:       p.DB.CacheStats(),
		Persist:          p.DB.PersistStats(),
		Remote:           remote,
		Fed:              agg,
	}
}

// Close releases resources (federation endpoints, bus, hub, DB). The
// aggregator closes first so no remote batch races the DB shutdown, then
// the probe (persisting its spool ack watermark), then the local stages.
// On a persistent pipeline the DB close flushes and fsyncs the WAL so a
// clean shutdown loses nothing; the returned error is the first failure.
func (p *Pipeline) Close() error {
	var err error
	if p.Agg != nil {
		err = p.Agg.Close()
	}
	if p.Remote != nil {
		if e := p.Remote.Close(); err == nil {
			err = e
		}
	}
	p.Bus.Close()
	p.Hub.Close()
	if e := p.DB.Close(); err == nil {
		err = e
	}
	return err
}
