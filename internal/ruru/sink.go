package ruru

// The sharded sink stage: everything downstream of the enricher.
//
// PR 1 made the ingest side (ring → nic → core) batched and lossless, but
// the storage/visualization side still funnelled every enriched measurement
// through a single goroutine into a TSDB guarded by one global mutex — the
// "collector can't keep up" failure mode that silently invalidates a
// measurement system's output. This file replaces that consumer with a pool
// of sink workers:
//
//	sinkSub ──► dispatcher ──► shard 0 worker ──► { WriteBatch, detectors,
//	           (decode+hash)   shard 1 worker       arc ring, WS frame }
//	                           ...
//
// Measurements are partitioned by a hash of the src_city→dst_city pair, so
// each anomaly-detector key and each TSDB latency series keeps single-worker
// affinity: per-key processing order is preserved and per-key state never
// crosses workers. Workers drain their shard channel in bursts of up to
// SinkBatch, write the TSDB points with one batched, stripe-locked call, and
// coalesce the burst into one WebSocket frame — skipping JSON encoding
// entirely when no client is connected.

import (
	"bytes"
	"context"
	"sort"

	"ruru/internal/analytics"
	"ruru/internal/hashx"
	"ruru/internal/mq"
	"ruru/internal/tsdb"
)

// sinkItem is one decoded enriched measurement routed to a sink worker,
// with the detector key precomputed by the dispatcher.
type sinkItem struct {
	e    analytics.Enriched
	pair string
}

// sinkShardDepth is the per-worker channel capacity. Together with the
// subscription HWM it bounds in-flight measurements; a stalled worker
// backpressures the dispatcher, which surfaces as SinkDrop at the HWM.
const sinkShardDepth = 4096

// pairKey is the detector/shard-routing key of a measurement. The format
// is load-bearing: it decides both worker affinity and anomaly-detector
// state keys, so every ingress path must build it through this helper.
func pairKey(e *analytics.Enriched) string {
	return e.Src.City + "→" + e.Dst.City
}

// shardFor routes a detector key to its sink shard.
func (p *Pipeline) shardFor(pair string) *sinkShard {
	return p.sinkShards[hashx.FNV1a32(pair)%uint32(len(p.sinkShards))]
}

// runSinkDispatcher drains the enriched subscription, decodes each message
// and hands it to its shard's worker. Decode failures are counted in
// Stats().SinkDecodeErrors (they used to be silently discarded);
// subscription HWM overflow is visible as Stats().SinkDrop.
func (p *Pipeline) runSinkDispatcher(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-p.sinkSub.C():
			if !ok {
				return
			}
			p.routeSink(ctx, msg)
		}
	}
}

func (p *Pipeline) routeSink(ctx context.Context, msg mq.Message) {
	var it sinkItem
	if err := analytics.UnmarshalEnriched(msg.Payload, &it.e); err != nil {
		p.sinkDecodeErrors.Add(1)
		return
	}
	it.pair = pairKey(&it.e)
	sh := p.shardFor(it.pair)
	select {
	case sh.ch <- it:
	case <-ctx.Done():
	}
}

// runSinkWorker owns one shard: it drains the shard channel in bursts of up
// to SinkBatch and dispatches each burst to every output.
func (p *Pipeline) runSinkWorker(ctx context.Context, sh *sinkShard) {
	batch := make([]sinkItem, 0, p.cfg.SinkBatch)
	// Shard channels are never closed: the worker's only exit is ctx
	// cancellation, which abandons whatever is still queued (see the
	// Stats ledger doc).
	for {
		select {
		case <-ctx.Done():
			return
		case it := <-sh.ch:
			batch = append(batch[:0], it)
		fill:
			for len(batch) < cap(batch) {
				select {
				case it := <-sh.ch:
					batch = append(batch, it)
				default:
					break fill
				}
			}
			p.consumeBatch(sh, batch)
		}
	}
}

// seriesRefFor returns the interned TSDB handle for e's latency series,
// consulting the shard's worker-private cache. Steady state is one key
// build into reused scratch plus a no-alloc map probe; only a
// never-seen identity takes the Ref slow path.
func (p *Pipeline) seriesRefFor(sh *sinkShard, e *analytics.Enriched) (tsdb.SeriesRef, error) {
	sh.keyBuf = analytics.AppendLatencyKey(sh.keyBuf[:0], e)
	if ref, ok := sh.refs[string(sh.keyBuf)]; ok {
		return ref, nil
	}
	pt := analytics.LatencyPoint(e)
	ref, err := p.DB.Ref(pt.Name, pt.Tags, analytics.LatencyFieldKeys()...)
	if err != nil {
		return 0, err
	}
	sh.refs[string(sh.keyBuf)] = ref
	return ref, nil
}

// writeSinkBatch converts one burst into RefPoints backed by the shard's
// value arena and writes them through the interned-handle TSDB path. The
// steady state (arena warm, refs interned) must not allocate — the noalloc
// analyzer enforces the construct-level discipline; the sink benchmark
// gates the measured allocs/op.
//
//ruru:noalloc
func (p *Pipeline) writeSinkBatch(sh *sinkShard, batch []sinkItem) {
	// Reserve the value arena up front so Vals subslices stay valid while
	// the arena fills.
	need := len(batch) * 3
	if cap(sh.vals) < need {
		sh.vals = make([]float64, 0, need)
	}
	vals := sh.vals[:0]
	rpts := sh.rpts[:0]
	for i := range batch {
		e := &batch[i].e
		ref, err := p.seriesRefFor(sh, e)
		if err != nil {
			// Only a Close racing this worker can fail here; the point is
			// unwritable, so account for it immediately.
			p.sinkWriteErrors.Add(1)
			continue
		}
		n := len(vals)
		vals = analytics.AppendLatencyVals(vals, e)
		rpts = append(rpts, tsdb.RefPoint{Ref: ref, Time: e.Time, Vals: vals[n:len(vals):len(vals)]})
	}
	sh.vals, sh.rpts = vals, rpts
	if applied, err := p.DB.WriteBatchRef(rpts); err != nil {
		// Count exactly the unapplied remainder — points in stripes written
		// before the failure are already in DBPoints — so the ledger stays
		// honest.
		p.sinkWriteErrors.Add(uint64(len(rpts) - applied))
	}
}

// consumeBatch dispatches one burst to all sinks: a single striped-lock
// TSDB batch write through interned series handles (zero-alloc at steady
// state), one coalesced WebSocket frame (only encoded when a client is
// connected), the anomaly detectors in arrival order, and the shard's arc
// ring.
func (p *Pipeline) consumeBatch(sh *sinkShard, batch []sinkItem) {
	p.writeSinkBatch(sh, batch)

	if p.Hub.LiveClients() > 0 {
		p.broadcastLive(sh, batch)
	}

	if p.Hub.RollupClients() > 0 {
		// Rollup-stream audience: fold the burst into per-(pair, bucket)
		// delta cells instead of marshalling events — the flusher coalesces
		// everything into one frame per interval for all rollup clients.
		for i := range batch {
			p.Delta.Add(&batch[i].e)
		}
	}

	for i := range batch {
		p.offerDetectors(&batch[i].e, batch[i].pair)
	}

	if p.pairTop != nil {
		// One lock round per burst: the city-pair latency summary is a
		// leaf lock shared by all sink workers (pairs cross shards only
		// via Feed, but the summary is global either way).
		p.pairTopMu.Lock()
		for i := range batch {
			p.pairTop.UpdateLat(batch[i].pair, 1, float64(batch[i].e.TotalNs)/1e6)
		}
		p.pairTopMu.Unlock()
	}

	sh.mu.Lock()
	for i := range batch {
		sh.arcs.push(batch[i].e)
	}
	sh.mu.Unlock()
}

// broadcastLive encodes items as one /ws live frame, a JSON array of
// Enriched byte-identical to json.Marshal's, into the shard's scratch and
// broadcasts a copy: the Hub keeps the bytes in client queues, so only
// the scratch is reusable.
func (p *Pipeline) broadcastLive(sh *sinkShard, items []sinkItem) {
	sh.mu.Lock()
	b := append(sh.frame[:0], '[')
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = analytics.AppendEnrichedJSON(b, &items[i].e)
	}
	b = append(b, ']')
	sh.frame = b
	data := bytes.Clone(b)
	sh.mu.Unlock()
	p.Hub.Broadcast(data)
}

// offerDetectors feeds one measurement to the anomaly detectors and the
// SNMP strawman. The detectors are safe for concurrent use (internal
// locks); single-worker shard affinity keeps each key on one goroutine.
func (p *Pipeline) offerDetectors(e *analytics.Enriched, pair string) {
	if ev, ok := p.Spikes.Offer(pair, e.Time, e.TotalNs); ok {
		p.spikeEventsMu.Lock()
		if p.spikeEvents.push(ev) {
			p.spikeEventsEvicted.Add(1)
		}
		p.spikeEventsMu.Unlock()
	}
	p.Surge.Observe(pair, e.Time)
	if p.SNMP != nil {
		p.snmpMu.Lock()
		p.SNMP.Offer(e.Time, e.TotalNs)
		p.snmpMu.Unlock()
	}
}

// recentRing keeps the last cap(buf) values pushed, overwriting the oldest
// once full. Not safe for concurrent use: its owner holds a lock.
type recentRing[T any] struct {
	buf []T
	pos int // the oldest value's slot once full
}

func newRecentRing[T any](n int) recentRing[T] { return recentRing[T]{buf: make([]T, 0, n)} }

// push appends v and reports whether it overwrote the oldest value.
func (r *recentRing[T]) push(v T) bool {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return false
	}
	r.buf[r.pos] = v
	r.pos = (r.pos + 1) % cap(r.buf)
	return true
}

// ordered returns a copy of the values, oldest first.
func (r *recentRing[T]) ordered() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.pos:]...)
	return append(out, r.buf[:r.pos]...)
}

// Feed injects an enriched measurement directly into the sink stage,
// bypassing packet processing and the worker pool — synchronous, used by
// harnesses and the quickstart example to exercise storage/visualization in
// isolation. Safe concurrently with a running pipeline: it takes the same
// per-shard lock as the owning worker, though cross-call ordering against
// bus-delivered measurements on the same key is then unspecified.
func (p *Pipeline) Feed(e *analytics.Enriched) {
	pair := pairKey(e)
	sh := p.shardFor(pair)
	pt := analytics.LatencyPoint(e)
	if err := p.DB.Write(&pt); err != nil {
		p.sinkWriteErrors.Add(1)
	}
	if p.Hub.LiveClients() > 0 {
		p.broadcastLive(sh, []sinkItem{{e: *e}})
	}
	if p.Hub.RollupClients() > 0 {
		p.Delta.Add(e)
	}
	p.offerDetectors(e, pair)
	if p.pairTop != nil {
		p.pairTopMu.Lock()
		p.pairTop.UpdateLat(pair, 1, float64(e.TotalNs)/1e6)
		p.pairTopMu.Unlock()
	}
	sh.mu.Lock()
	sh.arcs.push(*e)
	sh.mu.Unlock()
}

// RecentArcs returns up to n of the most recent enriched measurements for
// the live map, merged across the per-worker arc rings by measurement time
// (n <= 0: everything retained, at most SinkWorkers × ArcsBuffer).
// "Most recent" is approximate when completion timestamps arrive slightly
// out of order within a shard: the per-shard tail is taken in arrival
// order before the cross-shard sort — fine for a live visualization feed,
// and it avoids copying every ring on each request.
func (p *Pipeline) RecentArcs(n int) []analytics.Enriched {
	var all []analytics.Enriched
	for _, sh := range p.sinkShards {
		sh.mu.Lock()
		arcs := sh.arcs.ordered()
		// The newest n of the merged set can only come from the newest n
		// of each shard, so drop each shard's older remainder before the
		// cross-shard sort instead of copying the whole ring.
		if n > 0 && n < len(arcs) {
			arcs = arcs[len(arcs)-n:]
		}
		all = append(all, arcs...)
		sh.mu.Unlock()
	}
	// Each shard is already oldest→newest; a stable sort by time merges
	// them without reordering same-timestamp entries within a shard.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	if n > 0 && n < len(all) {
		all = all[len(all)-n:]
	}
	return all
}
