package main

// The traced run (--trace 1). Its two parts measure the same stage
// boundaries as the pipeline's Figure 2 from outside the program:
//
//   (a) bus taps: the benchmark's own subscriptions on the raw and enriched
//       topics stamp every arrival and match it, by ACK timestamp, to the
//       due time of the ACK that produced it — the core, analytics and sink
//       stage lags of the live run;
//   (b) staged replay: after the live run, the lap's frames and the raw and
//       enriched streams recorded in (a) are replayed into each layer's
//       public entry points in isolation, with every batch of calls timed
//       as a span.
//
// Laps alternate: lap 0 warms up, odd laps carry the taps and even laps do
// not, and the pipeline drains between laps so each lap's CPU time per
// packet is its own. trace.overhead_frac compares the two kinds of lap;
// trace.unaccounted_frac compares the sum of the layers' self time per
// packet with the untraced laps' CPU time per packet. Spans stay in memory
// and are written to <workdir>/spans/<workload>-seed<N>.jsonl at the end.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/anomaly"
	"ruru/internal/core"
	"ruru/internal/mq"
	"ruru/internal/nic"
	"ruru/internal/pkt"
	"ruru/internal/rss"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
)

const (
	// tapHWM is the taps' subscription depth (above the pipeline's own, so
	// the taps are never the subscriber that sheds).
	tapHWM = 1 << 16
	// maxRecorded caps the raw and enriched messages kept for replay.
	maxRecorded = 50000
	// spanBatch is how many calls one replay span times.
	spanBatch = 256
	// flowSpans is how many measurements get per-stage lag spans in the
	// span file (all of them feed the lag percentiles).
	flowSpans = 2000
	// replayQueries is how many queries of the dashboard mix the replay
	// times (four panels among them).
	replayQueries = 200
)

// span is one timed interval. Spans of one measurement share Flow (its ACK
// ordinal, or -1); Parent links a batch of calls to its replay stage.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Flow   int    `json:"flow"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"`
}

type spanLog struct {
	clk   clock
	spans []span
}

func (l *spanLog) add(s span) int {
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

func (l *spanLog) open(name string, parent int) int {
	return l.add(span{Parent: parent, Flow: -1, Name: name, Start: l.clk.now()})
}

func (l *spanLog) close(id, calls int) {
	s := &l.spans[id-1]
	s.End, s.Calls = l.clk.now(), calls
}

// batches runs f(0..n-1) under stage, one span per spanBatch calls, and
// returns the summed span time: the entry point's self time.
func (l *spanLog) batches(stage int, name string, n int, f func(i int)) int64 {
	var total int64
	for i := 0; i < n; i += spanBatch {
		j := min(i+spanBatch, n)
		id := l.open(name, stage)
		for q := i; q < j; q++ {
			f(q)
		}
		l.close(id, j-i)
		total += l.spans[id-1].End - l.spans[id-1].Start
	}
	return total
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lapCost is one lap's process CPU time per offered packet.
type lapCost struct {
	traced bool
	nsPkt  float64
}

// tap is one bus subscription of part (a) and the goroutine draining it.
type tap struct {
	sub  *mq.Subscription
	done chan struct{}
}

type tracer struct {
	r    *run
	log  spanLog
	laps []lapCost

	rawTap, enrTap *tap
	rawAt, enrAt   []int64  // per ACK ordinal, 0 when unseen
	enrOrder       []int64  // current lap's enriched arrivals in order
	sinkLag        []int64  // count-matched enriched → stored
	raws, enrs     [][]byte // recorded payloads for the replay

	lapStored int64
	lapCPU    time.Duration
}

func newTracer(r *run) *tracer {
	return &tracer{r: r, rawAt: make([]int64, r.expected), enrAt: make([]int64, r.expected)}
}

// beforeLap drains the pipeline, attaches the taps on odd laps and starts
// the lap's CPU clock. k is the number of ACKs injected so far.
func (t *tracer) beforeLap(lap, k int) error {
	if !t.r.waitStored(k, settleTimeout) {
		return fmt.Errorf("traced run: pipeline did not drain before lap %d", lap)
	}
	t.log.clk = t.r.clk
	if lap%2 == 1 {
		var err error
		if t.rawTap, err = t.subscribe(ruru.TopicRaw, t.onRaw); err != nil {
			return err
		}
		if t.enrTap, err = t.subscribe(ruru.TopicEnriched, t.onEnriched); err != nil {
			return err
		}
	}
	t.lapStored = int64(k)
	t.lapCPU = cpuTime()
	return nil
}

// afterLap waits for the lap's measurements to be stored, records its CPU
// time per packet, and detaches the taps.
func (t *tracer) afterLap(lap, k int) error {
	if !t.r.waitStored(k, settleTimeout) {
		return fmt.Errorf("traced run: lap %d did not settle", lap)
	}
	cpu := cpuTime() - t.lapCPU
	if lap > 0 {
		t.laps = append(t.laps, lapCost{traced: lap%2 == 1, nsPkt: float64(cpu) / float64(t.r.tr.packets())})
	}
	if t.rawTap == nil {
		return nil
	}
	t.rawTap.close()
	t.enrTap.close()
	t.rawTap, t.enrTap = nil, nil
	for j, e := range t.enrOrder {
		if s := t.lapStored + int64(j); s < int64(len(t.r.storedAt)) {
			t.sinkLag = append(t.sinkLag, t.r.storedAt[s]-e)
		}
	}
	t.enrOrder = t.enrOrder[:0]
	return nil
}

func (t *tracer) subscribe(topic string, on func(payload []byte, at int64)) (*tap, error) {
	sub, err := t.r.p.Bus.Subscribe(topic, tapHWM)
	if err != nil {
		return nil, err
	}
	tp := &tap{sub: sub, done: make(chan struct{})}
	go func() {
		defer close(tp.done)
		for msg := range sub.C() {
			on(msg.Payload, t.r.clk.now())
		}
	}()
	return tp, nil
}

func (tp *tap) close() {
	tp.sub.Close()
	<-tp.done
}

func (t *tracer) onRaw(payload []byte, at int64) {
	var m core.Measurement
	if analytics.UnmarshalMeasurement(payload, &m) != nil {
		return
	}
	if ord, ok := t.r.tr.ackOrdinal(m.ACKTime, base); ok && ord < len(t.rawAt) {
		t.rawAt[ord] = at
	}
	if len(t.raws) < maxRecorded {
		t.raws = append(t.raws, payload) // bus payloads are immutable
	}
}

func (t *tracer) onEnriched(payload []byte, at int64) {
	var e analytics.Enriched
	if analytics.UnmarshalEnriched(payload, &e) != nil {
		return
	}
	if ord, ok := t.r.tr.ackOrdinal(e.Time, base); ok && ord < len(t.enrAt) {
		t.enrAt[ord] = at
	}
	t.enrOrder = append(t.enrOrder, at)
	if len(t.enrs) < maxRecorded {
		t.enrs = append(t.enrs, payload)
	}
}

// finish computes the traced run's metrics into res.layer and writes the
// span file.
func (t *tracer) finish(res *result, qs *queryStats) error {
	r := t.r
	var coreLag, anaLag []int64
	for ord := range t.rawAt {
		if t.rawAt[ord] == 0 {
			continue
		}
		coreLag = append(coreLag, t.rawAt[ord]-r.due[ord])
		if len(coreLag) <= flowSpans {
			t.log.add(span{Flow: ord, Name: "core", Start: r.due[ord], End: t.rawAt[ord], Calls: 1})
		}
		if t.enrAt[ord] != 0 {
			anaLag = append(anaLag, t.enrAt[ord]-t.rawAt[ord])
			if len(anaLag) <= flowSpans {
				t.log.add(span{Flow: ord, Name: "analytics", Start: t.rawAt[ord], End: t.enrAt[ord], Calls: 1})
			}
		}
	}
	if len(coreLag) == 0 || len(anaLag) == 0 {
		return errors.New("traced run: the bus taps saw no measurements")
	}
	cd, ad, sd := distOf(coreLag), distOf(anaLag), distOf(t.sinkLag)

	c, err := t.replay()
	if err != nil {
		return err
	}
	var traced, untraced []float64
	for _, l := range t.laps {
		if l.traced {
			traced = append(traced, l.nsPkt)
		} else {
			untraced = append(untraced, l.nsPkt)
		}
	}
	e2eNsPkt := median(untraced)
	overhead := median(traced)/e2eNsPkt - 1

	tr := r.tr
	measPerPkt := float64(tr.completes()) / float64(tr.packets())
	queriesPerPkt := 0.0
	if r.wl.dashboard {
		queriesPerPkt = float64(qs.issued) / float64(r.laps*tr.packets())
	}
	perMeas := c.codec + 2*c.geo + c.spike + c.surge + c.write
	layerSum := c.nicSelf + c.parse + c.processAll + measPerPkt*perMeas + queriesPerPkt*c.handler
	unaccounted := 1 - layerSum/e2eNsPkt

	for name, m := range map[string]metric{
		"nic.rx_ns_per_pkt":          {c.rx, "ns/pkt", 0},
		"nic.inject_self_ns_per_pkt": {c.inject, "ns/pkt", 0},
		"rss.hash_ns":                {c.hash, "ns", 0},
		"pkt.parse_ns":               {c.parse, "ns", 0},
		"core.process_ns":            {c.process, "ns", 0},
		"core.lag_p50_ms":            {cd.p50, "ms", cd.n},
		"core.lag_p99_ms":            {cd.p99, "ms", cd.n},
		"analytics.codec_ns":         {c.codec, "ns/meas", 0},
		"geo.lookup_ns":              {c.geo, "ns", 0},
		"analytics.lag_p50_ms":       {ad.p50, "ms", ad.n},
		"analytics.lag_p99_ms":       {ad.p99, "ms", ad.n},
		"ruru.sink_lag_p50_ms":       {sd.p50, "ms", sd.n},
		"ruru.sink_lag_p99_ms":       {sd.p99, "ms", sd.n},
		"anomaly.spike_ns":           {c.spike, "ns", 0},
		"anomaly.surge_ns":           {c.surge, "ns", 0},
		"tsdb.write_ns_per_pt":       {c.write, "ns/pt", 0},
		"tsdb.query_ns":              {c.execute, "ns", 0},
		"web.query_ns":               {c.handler - c.execute, "ns", 0},
		"trace.e2e_cpu_ns_per_pkt":   {e2eNsPkt, "ns/pkt", len(untraced)},
		"trace.layer_sum_ns_per_pkt": {layerSum, "ns/pkt", 0},
		"trace.unaccounted_frac":     {unaccounted, "ratio", 0},
		"trace.overhead_frac":        {overhead, "ratio", len(traced)},
	} {
		res.layer[name] = m
	}
	path := filepath.Join(r.opts.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.wl.name, r.opts.seed))
	if err := t.log.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: wrote %d spans to %s\n", len(t.log.spans), path)
	return nil
}

// costs are the staged replay's self times. Per-packet figures (ns/pkt of
// the lap) feed the layer sum directly; the rest are ns per call. Every
// frame is parsed, so parse is both.
type costs struct {
	inject, rx, nicSelf  float64 // ns per packet of the lap
	parse, hash, process float64 // ns per call
	processAll           float64 // ns per packet of the lap
	codec, geo           float64 // ns per measurement / per lookup
	spike, surge, write  float64 // ns per call / per point
	execute, handler     float64 // ns per dashboard query
}

// replay is part (b): each layer's public entry points, in isolation, fed
// the lap's frames and the recorded raw and enriched streams.
func (t *tracer) replay() (costs, error) {
	var c costs
	l := &t.log
	tr := t.r.tr
	n := tr.packets()

	// nic: InjectBurst into a fresh port shaped like the pipeline's (its
	// RSS classify parses and hashes every frame), RxBurst to drain it.
	stage := l.open("replay.nic", 0)
	pool := nic.NewMempool(16384, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 2, QueueDepth: 4096, Pool: pool, Policy: nic.Drop})
	if err != nil {
		return c, err
	}
	frames := make([]nic.Frame, 0, burst)
	bufs := make([]*nic.Buf, burst)
	var injNs, rxNs int64
	for i := 0; i < n; i += burst {
		j := min(i+burst, n)
		frames = tr.fill(frames, i, j, base)
		id := l.open("nic.InjectBurst", stage)
		got := port.InjectBurst(frames)
		l.close(id, j-i)
		injNs += l.spans[id-1].End - l.spans[id-1].Start
		id = l.open("nic.RxBurst", stage)
		drained := 0
		for q := 0; q < 2; q++ {
			for {
				m, _ := port.RxBurst(q, bufs)
				if m == 0 {
					break
				}
				for _, b := range bufs[:m] {
					b.Free()
				}
				drained += m
			}
		}
		l.close(id, drained)
		rxNs += l.spans[id-1].End - l.spans[id-1].Start
		if got != j-i || drained != got {
			return c, fmt.Errorf("replay: nic accepted %d, drained %d of %d frames", got, drained, j-i)
		}
	}
	l.close(stage, n)
	c.inject, c.rx = float64(injNs)/float64(n), float64(rxNs)/float64(n)
	c.nicSelf = c.inject + c.rx

	// pkt: the engine parses every frame once more after the NIC.
	stage = l.open("replay.pkt", 0)
	var parser pkt.Parser
	var sum pkt.Summary
	parseNs := l.batches(stage, "pkt.Parser.Parse", n, func(i int) { _ = parser.Parse(tr.frame(i), &sum) })
	l.close(stage, n)
	c.parse = float64(parseNs) / float64(n)

	// rss: the Toeplitz hash of every TCP/UDP 4-tuple (also inside
	// InjectBurst's classify, so it is reported but not summed again).
	type tuple struct {
		src, dst netip.Addr
		sp, dp   uint16
	}
	var tuples []tuple
	for i := 0; i < n; i++ {
		if parser.Parse(tr.frame(i), &sum) != nil {
			continue
		}
		switch {
		case sum.IsTCP():
			tuples = append(tuples, tuple{sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort})
		case sum.Decoded&pkt.LayerUDP != 0:
			tuples = append(tuples, tuple{sum.Src(), sum.Dst(), sum.UDP.SrcPort, sum.UDP.DstPort})
		}
	}
	stage = l.open("replay.rss", 0)
	h := rss.NewSymmetric()
	var sink uint32
	hashNs := l.batches(stage, "rss.Hasher.HashTuple", len(tuples), func(i int) {
		tp := &tuples[i]
		sink ^= h.HashTuple(tp.src, tp.dst, tp.sp, tp.dp)
	})
	l.close(stage, len(tuples))
	c.hash = float64(hashNs) / float64(max(1, len(tuples)))
	tuples = nil

	// core: HandshakeTable.Process over every TCP packet in lap order,
	// parsed outside the timed spans.
	stage = l.open("replay.core", 0)
	table := core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 16})
	sums := make([]pkt.Summary, spanBatch)
	hashes := make([]uint32, spanBatch)
	stamps := make([]int64, spanBatch)
	var m core.Measurement
	var procNs int64
	tcpPkts, completed := 0, 0
	for i := 0; i < n; {
		k := 0
		for ; i < n && k < spanBatch; i++ {
			if parser.Parse(tr.frame(i), &sums[k]) == nil && sums[k].IsTCP() {
				hashes[k] = h.HashTuple(sums[k].Src(), sums[k].Dst(), sums[k].TCP.SrcPort, sums[k].TCP.DstPort)
				stamps[k] = base + tr.ts[i]
				k++
			}
		}
		id := l.open("core.HandshakeTable.Process", stage)
		for q := 0; q < k; q++ {
			if table.Process(&sums[q], stamps[q], hashes[q], &m) {
				completed++
			}
		}
		l.close(id, k)
		procNs += l.spans[id-1].End - l.spans[id-1].Start
		tcpPkts += k
	}
	l.close(stage, tcpPkts)
	if completed != tr.completes() {
		return c, fmt.Errorf("replay: handshake table completed %d of %d", completed, tr.completes())
	}
	c.process = float64(procNs) / float64(max(1, tcpPkts))
	c.processAll = float64(procNs) / float64(n)

	if err := t.replayMeasurements(&c); err != nil {
		return c, err
	}
	t.replayQueries(&c)
	hashSink = sink
	return c, nil
}

// hashSink keeps the replayed hashes observable so the calls stay in.
var hashSink uint32

// replayMeasurements replays the recorded raw and enriched streams into the
// analytics codecs, the geo DB, the anomaly detectors and the TSDB write
// path.
func (t *tracer) replayMeasurements(c *costs) error {
	l := &t.log
	geoDB := t.r.world.DB()
	ms := make([]core.Measurement, len(t.raws))
	for i, p := range t.raws {
		if err := analytics.UnmarshalMeasurement(p, &ms[i]); err != nil {
			return err
		}
	}
	es := make([]analytics.Enriched, len(t.enrs))
	for i, p := range t.enrs {
		if err := analytics.UnmarshalEnriched(p, &es[i]); err != nil {
			return err
		}
	}
	if len(ms) == 0 || len(es) == 0 {
		return errors.New("replay: no recorded measurements")
	}

	stage := l.open("replay.analytics", 0)
	buf := make([]byte, 0, 512)
	var m core.Measurement
	var e analytics.Enriched
	var codecNs int64
	codecNs += l.batches(stage, "analytics.MarshalMeasurement", len(ms), func(i int) { buf = analytics.MarshalMeasurement(buf, &ms[i]) })
	codecNs += l.batches(stage, "analytics.UnmarshalMeasurement", len(t.raws), func(i int) { _ = analytics.UnmarshalMeasurement(t.raws[i], &m) })
	codecNs += l.batches(stage, "analytics.MarshalEnriched", len(es), func(i int) { buf = analytics.MarshalEnriched(buf, &es[i]) })
	codecNs += l.batches(stage, "analytics.UnmarshalEnriched", len(t.enrs), func(i int) { _ = analytics.UnmarshalEnriched(t.enrs[i], &e) })
	geoNs := l.batches(stage, "geo.DB.Lookup", 2*len(ms), func(i int) {
		if i%2 == 0 {
			geoDB.Lookup(ms[i/2].Flow.Client)
		} else {
			geoDB.Lookup(ms[i/2].Flow.Server)
		}
	})
	l.close(stage, len(ms))
	c.codec = float64(codecNs) / float64((len(ms)+len(es))/2)
	c.geo = float64(geoNs) / float64(2*len(ms))

	pairs := make([]string, len(es))
	for i := range es {
		pairs[i] = pairKey(&es[i])
	}
	// Fresh detectors, warmed like the pipeline's so every window is full.
	spikes := anomaly.NewSpikeBank(anomaly.SpikeConfig{}, 0)
	surge := anomaly.NewSurgeDetector(anomaly.SurgeConfig{})
	warmDetectors(t.r.tr, spikes, surge)
	stage = l.open("replay.anomaly", 0)
	spikeNs := l.batches(stage, "anomaly.SpikeBank.Offer", len(es), func(i int) { spikes.Offer(pairs[i], es[i].Time, es[i].TotalNs) })
	surgeNs := l.batches(stage, "anomaly.SurgeDetector.Observe", len(es), func(i int) { surge.Observe(pairs[i], es[i].Time) })
	l.close(stage, len(es))
	c.spike, c.surge = float64(spikeNs)/float64(len(es)), float64(surgeNs)/float64(len(es))

	// tsdb: interned-ref batch writes with the default rollup ladder, in
	// sink-sized batches; series are interned outside the spans.
	db := tsdb.Open(tsdb.Options{Rollups: tsdb.DefaultRollups(), Stripes: 8})
	defer db.Close()
	refs := make(map[string]tsdb.SeriesRef)
	var key []byte
	rpts := make([]tsdb.RefPoint, len(es))
	vals := make([]float64, 0, 3*len(es))
	for i := range es {
		key = analytics.AppendLatencyKey(key[:0], &es[i])
		ref, ok := refs[string(key)]
		if !ok {
			pt := analytics.LatencyPoint(&es[i])
			var err error
			if ref, err = db.Ref(pt.Name, pt.Tags, analytics.LatencyFieldKeys()...); err != nil {
				return err
			}
			refs[string(key)] = ref
		}
		n := len(vals)
		vals = analytics.AppendLatencyVals(vals, &es[i])
		rpts[i] = tsdb.RefPoint{Ref: ref, Time: es[i].Time, Vals: vals[n:len(vals):len(vals)]}
	}
	stage = l.open("replay.tsdb", 0)
	var writeNs int64
	for i := 0; i < len(rpts); i += 64 {
		j := min(i+64, len(rpts))
		id := l.open("tsdb.DB.WriteBatchRef", stage)
		if _, err := db.WriteBatchRef(rpts[i:j]); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		l.close(id, j-i)
		writeNs += l.spans[id-1].End - l.spans[id-1].Start
	}
	l.close(stage, len(rpts))
	c.write = float64(writeNs) / float64(len(rpts))
	return nil
}

// replayQueries times the dashboard query mix on the run's settled DB:
// DB.Execute alone, then the same query through the /api/query handler
// (web.query_ns is the difference).
func (t *tracer) replayQueries(c *costs) {
	l := &t.log
	r := t.r
	now := base + int64(r.laps)*r.tr.span
	stage := l.open("replay.query", 0)
	var execNs, handlerNs int64
	total := replayQueries
	for i := 0; i < total; i++ {
		q := r.dashQuery(i, now)
		id := l.open("tsdb.DB.Execute", stage)
		_, _ = r.p.DB.Execute(q) // same query as the handler's, checked there
		l.close(id, 1)
		execNs += l.spans[id-1].End - l.spans[id-1].Start
		req := queryRequest(q)
		id = l.open("web.Server./api/query", stage)
		r.srv.ServeHTTP(httptest.NewRecorder(), req)
		l.close(id, 1)
		handlerNs += l.spans[id-1].End - l.spans[id-1].Start
	}
	l.close(stage, total)
	c.execute, c.handler = float64(execNs)/float64(total), float64(handlerNs)/float64(total)
}
