// Package bench defines the persisted benchmark trajectory: a fixed suite
// of hot-path microbenchmarks runnable from a plain binary (cmd/ruru-bench
// -json) via testing.Benchmark, emitting a machine-readable BENCH_*.json
// that CI checks in per PR and diffs against the previous entry
// (scripts/bench_compare.sh). The suite intentionally mirrors the shapes of
// the top-level bench_test.go benchmarks so `go test -bench` and the JSON
// trajectory measure the same code paths.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/anomaly"
	"ruru/internal/core"
	"ruru/internal/experiments"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/pkt"
	"ruru/internal/rss"
	"ruru/internal/ruru"
	"ruru/internal/sketch"
	"ruru/internal/tsdb"
	"ruru/internal/web"
	"ruru/internal/ws"
)

// Schema is the BENCH_*.json format version.
const Schema = 1

// Result is one benchmark's measurement in the JSON trajectory.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics carries benchmark-specific extras (b.ReportMetric), e.g.
	// "pps" — sustained TSDB points/second.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the serialized form of one trajectory entry.
type File struct {
	Schema     int               `json:"schema"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPUs       int               `json:"cpus"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Spec is one suite entry.
type Spec struct {
	Name string
	F    func(b *testing.B)
}

// Specs returns the trajectory suite: one entry per pipeline hot path —
// ingest hand-off, packet processing, sink drain, the spike detector, DB
// writes (by Point and by interned ref), WAL-logged writes, tier-served
// queries, and the JSON encoders behind /api/query and the live /ws feed.
func Specs() []Spec {
	return []Spec{
		{Name: "ingest/burst", F: benchIngestBurst},
		{Name: "process/handshake", F: benchHandshake},
		{Name: "core/tsrtt", F: benchTSRTT},
		{Name: "core/seq-rtt", F: benchSeqRTT},
		{Name: "sink/consume", F: benchSinkConsume},
		{Name: "anomaly/offer", F: benchSpikeOffer},
		{Name: "db/write-batch", F: benchDBWriteBatch},
		{Name: "db/write-batch-ref", F: benchDBWriteBatchRef},
		{Name: "db/write-batch-ref-steady", F: benchDBWriteBatchRefSteady},
		{Name: "wal/write-interval", F: benchWALWrite},
		{Name: "query/rollup", F: benchRollupQuery},
		{Name: "query/cached", F: benchCachedQuery},
		{Name: "web/query-panel", F: benchQueryPanel},
		{Name: "sink/live-frame", F: benchLiveFrame},
		{Name: "ws/delta-broadcast", F: benchDeltaBroadcast},
		{Name: "sketch/update", F: benchSketchUpdate},
		{Name: "sketch/topk", F: benchSketchTopK},
	}
}

// Run executes the whole suite and returns the trajectory entry.
// Progress lines go to w (pass io.Discard to silence).
func Run(w io.Writer) File {
	f := File{
		Schema:     Schema,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Benchmarks: make(map[string]Result),
	}
	for _, s := range Specs() {
		r := testing.Benchmark(s.F)
		res := Result{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BPerOp:      r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		f.Benchmarks[s.Name] = res
		fmt.Fprintf(w, "%-22s %12.1f ns/op %8d B/op %6d allocs/op%s\n",
			s.Name, res.NsPerOp, res.BPerOp, res.AllocsPerOp, fmtMetrics(res.Metrics))
	}
	return f
}

func fmtMetrics(m map[string]float64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %12.0f %s", m[k], k)
	}
	return s
}

// WriteJSON serializes f deterministically (sorted keys, trailing newline).
func WriteJSON(w io.Writer, f File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// --- suite bodies -----------------------------------------------------------

// benchIngestBurst: inject → RSS queue → RxBurst → recycle, batched
// (bench_test.go BenchmarkIngest/burst).
func benchIngestBurst(b *testing.B) {
	const burst = 64
	pool := nic.NewMempool(8192, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 1, QueueDepth: 4096, Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	spec := &pkt.TCPFrameSpec{
		SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.0.2.1"),
		SrcPort: 40000, DstPort: 443, Flags: pkt.TCPSyn, Window: 65535,
	}
	buf := make([]byte, 128)
	n, err := pkt.BuildTCPFrame(buf, spec)
	if err != nil {
		b.Fatal(err)
	}
	f := buf[:n]
	frames := make([]nic.Frame, burst)
	hashes := make([]uint32, burst)
	for i := range frames {
		frames[i] = nic.Frame{Data: f, TS: int64(i)}
		hashes[i] = uint32(i)
	}
	bufs := make([]*nic.Buf, burst)
	b.ReportAllocs()
	b.SetBytes(int64(len(f)))
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		port.InjectPreclassifiedBurst(frames, hashes)
		got, _ := port.RxBurst(0, bufs)
		for j := 0; j < got; j++ {
			bufs[j].Free()
		}
	}
}

// benchHandshake: parse + RSS hash + handshake-table processing per packet
// (bench_test.go BenchmarkE1HandshakeEngine).
func benchHandshake(b *testing.B) {
	w, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.New(gen.Config{
		Seed: 1, World: w,
		FlowRate: 10000, Duration: 1e15,
		DataSegments: 2, UDPRate: 2000, MidstreamRate: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	trace := make([]gen.TracePacket, 0, 50000)
	var p gen.Packet
	for len(trace) < 50000 && g.Next(&p) {
		frame := make([]byte, len(p.Frame))
		copy(frame, p.Frame)
		trace = append(trace, gen.TracePacket{TS: p.TS, Frame: frame})
	}
	table := core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 17, Timeout: 1 << 62})
	h := rss.NewSymmetric()
	var parser pkt.Parser
	var sum pkt.Summary
	var m core.Measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := &trace[i%len(trace)]
		if err := parser.Parse(tp.Frame, &sum); err != nil || !sum.IsTCP() {
			continue
		}
		hash := h.HashTuple(sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort)
		table.Process(&sum, tp.TS, hash, &m)
	}
}

// benchSummary builds a parsed TCP summary directly (the trackers' input —
// parse cost is measured by process/handshake, these entries isolate the
// per-packet tracker work the continuous-RTT path adds).
func benchSummary(hostA, hostB byte, sp, dp uint16, seq, ack uint32, payload []byte) (*pkt.Summary, uint32) {
	s := &pkt.Summary{}
	s.IP4.Src = netip.AddrFrom4([4]byte{10, 0, 0, hostA})
	s.IP4.Dst = netip.AddrFrom4([4]byte{192, 0, 2, hostB})
	s.Decoded = pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP
	s.TCP = pkt.TCP{SrcPort: sp, DstPort: dp, Flags: pkt.TCPAck, Seq: seq, Ack: ack}
	s.Payload = payload
	return s, rss.NewSymmetric().HashTuple(s.IP4.Src, s.IP4.Dst, sp, dp)
}

// benchTSRTT: the timestamp tracker's per-packet cost — a TSval insert and
// its echo match per op, alternating over 256 live flows (tsrtt_test.go
// BenchmarkTSTrackerProcess, multi-flow).
func benchTSRTT(b *testing.B) {
	const flows = 256
	tr := core.NewTSTracker(core.TSConfig{Capacity: 1 << 15})
	type flow struct {
		data, echo *pkt.Summary
		hash       uint32
	}
	var fl [flows]flow
	var opt [pkt.TimestampOptionLen]byte
	for i := range fl {
		d, h := benchSummary(byte(i), 1, uint16(5000+i), 443, 1000, 1, nil)
		d.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], 100, 50)...)
		e, _ := benchSummary(1, byte(i), 443, uint16(5000+i), 1, 1000, nil)
		e.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], 900, 100)...)
		fl[i] = flow{data: d, echo: e, hash: h}
	}
	var sample core.TSSample
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		f := &fl[i%flows]
		ts += 2
		tr.Process(f.data, ts, f.hash, &sample)
		tr.Process(f.echo, ts+1, f.hash, &sample)
	}
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "pps")
}

// benchSeqRTT: the sequence tracker's per-packet cost — a data edge insert
// and its covering ACK per op (one RTT sample), alternating over 256 live
// flows; the hot path is //ruru:noalloc and the trajectory pins
// allocs_per_op at 0 (seqrtt_test.go BenchmarkSeqTrackerProcess,
// multi-flow).
func benchSeqRTT(b *testing.B) {
	const flows = 256
	tr := core.NewSeqTracker(core.SeqConfig{Capacity: 1 << 15})
	type flow struct {
		data, ackp *pkt.Summary
		hash       uint32
	}
	var fl [flows]flow
	payload := make([]byte, 100)
	for i := range fl {
		d, h := benchSummary(byte(i), 1, uint16(5000+i), 443, 1000, 1, payload)
		a, _ := benchSummary(1, byte(i), 443, uint16(5000+i), 1, 1100, nil)
		fl[i] = flow{data: d, ackp: a, hash: h}
	}
	var sample core.SeqSample
	var loss core.LossEvent
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		f := &fl[i%flows]
		ts += 2
		f.data.TCP.Seq += 100
		f.ackp.TCP.Ack += 100
		tr.Process(f.data, ts, f.hash, &sample, &loss)
		tr.Process(f.ackp, ts+1, f.hash, &sample, &loss)
	}
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "pps")
}

// benchSinkConsume: enriched topic → sharded sink workers → batched
// interned-ref TSDB writes (bench_test.go BenchmarkConsume, 4 workers).
func benchSinkConsume(b *testing.B) {
	b.ReportAllocs()
	msgs := b.N
	if msgs < 20000 {
		msgs = 20000
	}
	rows, err := experiments.E11(experiments.E11Config{
		WorkerList: []int{4}, Messages: msgs,
	}, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	if rows[0].Drops != 0 {
		b.Fatalf("sink dropped %d measurements", rows[0].Drops)
	}
	b.ReportMetric(rows[0].Rate, "msg/s")
}

// benchSpikeOffer: the sink's per-measurement latency-spike check —
// SpikeBank.Offer on the production shape, full default (512-sample)
// windows over 8 city-pair keys, baseline samples only (the non-event path:
// one MedianMAD and one Add per op, 0 allocs/op).
func benchSpikeOffer(b *testing.B) {
	const keys, window = 8, 512
	bank := anomaly.NewSpikeBank(anomaly.SpikeConfig{Window: window}, 0)
	pairs := make([]string, keys)
	for k := range pairs {
		pairs[k] = fmt.Sprintf("City%d→Los Angeles", k)
	}
	rng := rand.New(rand.NewSource(1))
	lat := make([]int64, 4096)
	for i := range lat {
		lat[i] = int64(150e6 + rng.NormFloat64()*10e6)
	}
	for i := 0; i < keys*window; i++ {
		bank.Offer(pairs[i%keys], int64(i), lat[i%len(lat)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Offer(pairs[i%keys], int64(i), lat[i%len(lat)])
	}
}

func dbBatchOpts(stripes int) tsdb.Options {
	return tsdb.Options{ShardDuration: 1e9, Retention: 2e9, Stripes: stripes}
}

// benchDBWriteBatch: WriteBatch of Points, which resolves each point to
// its ref under the stripe lock and then applies it as WriteBatchRef does;
// 8 stripes (bench_test.go BenchmarkDBWriteBatch/stripes-8).
func benchDBWriteBatch(b *testing.B) {
	const batchLen = 64
	db := tsdb.Open(dbBatchOpts(8))
	var worker, clock atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		city := "City" + fmt.Sprint(worker.Add(1))
		batch := make([]tsdb.Point, batchLen)
		for pb.Next() {
			t := clock.Add(batchLen*1e6) - batchLen*1e6
			for i := range batch {
				t += 1e6
				batch[i] = tsdb.Point{
					Name: "latency",
					Tags: []tsdb.Tag{
						{Key: "src_city", Value: city},
						{Key: "dst_city", Value: "Los Angeles"},
					},
					Fields: []tsdb.Field{
						{Key: "internal_ms", Value: 15},
						{Key: "external_ms", Value: 130},
						{Key: "total_ms", Value: 145},
					},
					Time: t,
				}
			}
			if _, err := db.WriteBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	reportPPS(b, batchLen)
}

// benchDBWriteBatchRef: the interned-handle zero-alloc write path, same
// shape as benchDBWriteBatch (bench_test.go BenchmarkDBWriteBatchRef).
func benchDBWriteBatchRef(b *testing.B) {
	const batchLen = 64
	db := tsdb.Open(dbBatchOpts(8))
	var worker, clock atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		city := "City" + fmt.Sprint(worker.Add(1))
		ref, err := db.Ref("latency",
			[]tsdb.Tag{
				{Key: "src_city", Value: city},
				{Key: "dst_city", Value: "Los Angeles"},
			},
			"internal_ms", "external_ms", "total_ms")
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]tsdb.RefPoint, batchLen)
		vals := make([]float64, 3*batchLen)
		for i := range batch {
			v := vals[3*i : 3*i+3 : 3*i+3]
			v[0], v[1], v[2] = 15, 130, 145
			batch[i] = tsdb.RefPoint{Ref: ref, Vals: v}
		}
		for pb.Next() {
			t := clock.Add(batchLen*1e6) - batchLen*1e6
			for i := range batch {
				t += 1e6
				batch[i].Time = t
			}
			if _, err := db.WriteBatchRef(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	reportPPS(b, batchLen)
}

// benchDBWriteBatchRefSteady pins the zero-alloc claim in the trajectory:
// a single writer on the interned-ref path with long shards, so shard
// churn amortizes away and allocs_per_op records the steady state — 0
// allocation events per 64-point batch. B/op stays nonzero: it is the
// amortized cost of column storage growth (rare doubling reallocations),
// bytes without per-op allocation events. The AllocsPerRun unit test pins
// the same property exactly (pre-grown storage); this entry tracks it
// release over release.
func benchDBWriteBatchRefSteady(b *testing.B) {
	const batchLen = 64
	db := tsdb.Open(tsdb.Options{ShardDuration: 60e9, Retention: 120e9})
	ref, err := db.Ref("latency",
		[]tsdb.Tag{
			{Key: "src_city", Value: "Auckland"},
			{Key: "dst_city", Value: "Los Angeles"},
		},
		"internal_ms", "external_ms", "total_ms")
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]tsdb.RefPoint, batchLen)
	vals := make([]float64, 3*batchLen)
	for i := range batch {
		v := vals[3*i : 3*i+3 : 3*i+3]
		v[0], v[1], v[2] = 15, 130, 145
		batch[i] = tsdb.RefPoint{Ref: ref, Vals: v}
	}
	var t int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			t += 1e6
			batch[j].Time = t
		}
		if _, err := db.WriteBatchRef(batch); err != nil {
			b.Fatal(err)
		}
	}
	reportPPS(b, batchLen)
}

// benchWALWrite: one 64-point batch per op, WAL-logged at the production
// default fsync policy (bench_test.go BenchmarkWriteWAL/wal-interval).
func benchWALWrite(b *testing.B) {
	const batchLen = 64
	db, err := tsdb.OpenDB(tsdb.Options{
		Persist: &tsdb.PersistOptions{
			Dir: b.TempDir(), Fsync: tsdb.FsyncInterval, CheckpointEvery: -1,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			b.Error(err)
		}
	}()
	batch := make([]tsdb.Point, batchLen)
	var t int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			t += 1e6
			batch[j] = tsdb.Point{
				Name: "latency",
				Tags: []tsdb.Tag{
					{Key: "src_city", Value: "Auckland"},
					{Key: "dst_city", Value: "Los Angeles"},
				},
				Fields: []tsdb.Field{
					{Key: "internal_ms", Value: 15},
					{Key: "external_ms", Value: 130},
					{Key: "total_ms", Value: 145},
				},
				Time: t,
			}
		}
		if _, err := db.WriteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	reportPPS(b, batchLen)
}

// benchRollupQuery: a grouped, windowed query served from a rollup tier
// over a pre-populated DB — the dashboard read path.
func benchRollupQuery(b *testing.B) {
	db := tsdb.Open(tsdb.Options{
		ShardDuration: 10e9,
		Rollups:       []tsdb.RollupTier{{Width: 1e9}, {Width: 10e9}},
	})
	cities := []string{"Auckland", "Wellington", "Sydney", "Tokyo"}
	const nPoints = 100000
	batch := make([]tsdb.RefPoint, 0, 256)
	vals := make([]float64, 0, 256)
	refs := make([]tsdb.SeriesRef, len(cities))
	for i, c := range cities {
		ref, err := db.Ref("latency",
			[]tsdb.Tag{{Key: "src_city", Value: c}, {Key: "dst_city", Value: "Los Angeles"}},
			"total_ms")
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = ref
	}
	for i := 0; i < nPoints; i++ {
		vals = append(vals, float64(1+i%997))
		batch = append(batch, tsdb.RefPoint{
			Ref: refs[i%len(refs)], Time: int64(i) * 1e6,
			Vals: vals[len(vals)-1 : len(vals) : len(vals)],
		})
		if len(batch) == cap(batch) {
			if _, err := db.WriteBatchRef(batch); err != nil {
				b.Fatal(err)
			}
			batch, vals = batch[:0], vals[:0]
		}
	}
	q := tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 100e9, Window: 10e9, GroupBy: "src_city",
		Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMin, tsdb.AggMax, tsdb.AggSum, tsdb.AggMean},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(cities) {
			b.Fatalf("got %d groups", len(res))
		}
	}
}

// benchCachedQuery: the live-dashboard read path through the query result
// cache — the same advancing-window shape BenchmarkQueryCached pins at
// ≥10× over uncached tier execution, tracked here release over release.
// Each op re-issues a 10-minute window advanced by one 10s bucket, so
// steady state is one cache hit plus an incremental tail refresh.
func benchCachedQuery(b *testing.B) {
	db := tsdb.Open(tsdb.Options{
		ShardDuration: 60e9,
		Rollups:       []tsdb.RollupTier{{Width: 1e9}},
		QueryCache:    16 << 20,
	})
	cities := []string{"Auckland", "Wellington", "Sydney", "Tokyo"}
	refs := make([]tsdb.SeriesRef, len(cities))
	for i, c := range cities {
		ref, err := db.Ref("latency",
			[]tsdb.Tag{{Key: "src_city", Value: c}, {Key: "dst_city", Value: "Los Angeles"}},
			"total_ms")
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = ref
	}
	// 1200s of data at 4 series × 10 points/s.
	const span = int64(1200e9)
	batch := make([]tsdb.RefPoint, 0, 256)
	vals := make([]float64, 0, 256)
	for i := int64(0); i < span/1e8; i++ {
		vals = append(vals, float64(1+i%997))
		batch = append(batch, tsdb.RefPoint{
			Ref: refs[i%int64(len(refs))], Time: i * 1e8,
			Vals: vals[len(vals)-1 : len(vals) : len(vals)],
		})
		if len(batch) == cap(batch) {
			if _, err := db.WriteBatchRef(batch); err != nil {
				b.Fatal(err)
			}
			batch, vals = batch[:0], vals[:0]
		}
	}
	const (
		window   = int64(10e9)
		lookback = int64(600e9)
	)
	q := tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Window: window, GroupBy: "src_city",
		Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMean, tsdb.AggP95},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * window) % (span - lookback)
		q.Start, q.End = off, off+lookback
		res, err := db.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(cities) {
			b.Fatalf("got %d groups", len(res))
		}
	}
}

// worldEnriched returns n enriched measurements between w's cities,
// shaped like the sink's live traffic; measurement i starts in city
// i % len(w.Cities).
func worldEnriched(w *geo.World, n int) []analytics.Enriched {
	endpoint := func(c *geo.City) analytics.Endpoint {
		return analytics.Endpoint{CountryCode: c.CountryCode, Country: c.Country,
			City: c.Name, Lat: c.Lat, Lon: c.Lon, ASN: c.ASNs[0], ASName: fmt.Sprintf("AS-%s-0", c.Name)}
	}
	es := make([]analytics.Enriched, n)
	for i := range es {
		src, dst := &w.Cities[i%len(w.Cities)], &w.Cities[(i/len(w.Cities))%len(w.Cities)]
		es[i] = analytics.Enriched{
			Time: int64(i) * 1e9, InternalNs: int64(15e6 + i*1e3), ExternalNs: int64(130e6 + i*7e3),
			TotalNs: int64(145e6 + i*8e3), Src: endpoint(src), Dst: endpoint(dst),
		}
	}
	return es
}

// benchQueryPanel: the /api/query handler answering the live dashboard's
// panel — 1 h at 10 s grouped by src_city, 8 groups × 360 buckets of
// count/mean/p95 — from the query cache, so the op is parameter parsing,
// the cache hit and the response encoding.
func benchQueryPanel(b *testing.B) {
	w, err := geo.NewWorld(geo.WorldOptions{Seed: 1, Cities: 8})
	if err != nil {
		b.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB(), Rollups: tsdb.DefaultRollups(), QueryCacheBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			b.Error(err)
		}
	}()
	// One point per city per second for an hour.
	es := worldEnriched(w, len(w.Cities))
	pts := make([]tsdb.Point, 0, 3600*len(es))
	for sec := int64(0); sec < 3600; sec++ {
		for i := range es {
			es[i].Time = sec * 1e9
			pts = append(pts, analytics.LatencyPoint(&es[i]))
		}
	}
	if _, err := p.DB.WriteBatch(pts); err != nil {
		b.Fatal(err)
	}
	srv := web.NewServer(p)
	req := httptest.NewRequest("GET",
		"/api/query?start=0&end=3600e9&window=10e9&group_by=src_city&agg=count,mean,p95", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 || strings.Count(rec.Body.String(), `"start"`) != 8*360 {
		b.Fatalf("panel query: status %d, %d buckets", rec.Code, strings.Count(rec.Body.String(), `"start"`))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	}
}

// benchLiveFrame: the live /ws frame a sink worker builds per burst — one
// 64-measurement JSON array appended into warm scratch, plus the one copy
// the Hub keeps.
func benchLiveFrame(b *testing.B) {
	w, err := geo.NewWorld(geo.WorldOptions{Seed: 1, Cities: 8})
	if err != nil {
		b.Fatal(err)
	}
	es := worldEnriched(w, 64)
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = append(scratch[:0], '[')
		for j := range es {
			if j > 0 {
				scratch = append(scratch, ',')
			}
			scratch = analytics.AppendEnrichedJSON(scratch, &es[j])
		}
		scratch = append(scratch, ']')
		liveFrameSink = bytes.Clone(scratch)
	}
}

// liveFrameSink keeps benchLiveFrame's copy observable.
var liveFrameSink []byte

// benchDeltaBroadcast: the rollup-stream read side — fold a 64-measurement
// burst over 16 city pairs into the delta accumulator, coalesce it into one
// frame and broadcast to 8 /ws?stream=rollup clients. The whole per-op cost
// is independent of the client count except for the final per-client queue
// push, which is the point of the delta feed.
func benchDeltaBroadcast(b *testing.B) {
	hub := ws.NewHub(1 << 16)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	url := "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/?stream=rollup"
	for i := 0; i < 8; i++ {
		c, err := ws.Dial(url)
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
	for hub.RollupClients() < 8 {
		time.Sleep(time.Millisecond)
	}
	d := ruru.NewRollupDelta(1e9)
	const burst = 64
	srcs := []string{"Auckland", "Wellington", "Sydney", "Tokyo"}
	dsts := []string{"Los Angeles", "London", "Tokyo", "Frankfurt"}
	events := make([]analytics.Enriched, burst)
	for i := range events {
		events[i] = analytics.Enriched{
			TotalNs: int64(145e6 + i*1e6),
			Src:     analytics.Endpoint{City: srcs[i%len(srcs)]},
			Dst:     analytics.Endpoint{City: dsts[(i/len(srcs))%len(dsts)]},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t int64
	for i := 0; i < b.N; i++ {
		for j := range events {
			t += 15625000 // 64 events/s of data time
			events[j].Time = t
			d.Add(&events[j])
		}
		if frame := d.Flush(); frame != nil {
			hub.BroadcastRollup(frame)
		}
	}
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "events/s")
}

func reportPPS(b *testing.B, pointsPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*float64(pointsPerOp)/s, "pps")
	}
}

// benchSketchUpdate: the bounded-memory tier's per-packet cost — a
// conservative-update count-min write plus the space-saving flow and
// /24-prefix heavy-hitter updates — steady state over 256 tracked flows
// (all hot paths //ruru:noalloc; the trajectory pins allocs_per_op at 0).
func benchSketchUpdate(b *testing.B) {
	tier, err := sketch.NewFlowTier(sketch.TierConfig{BudgetBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	const flows = 256
	var fl [flows]*pkt.Summary
	for i := range fl {
		s, _ := benchSummary(byte(i), 1, uint16(5000+i), 443, 1000, 1, nil)
		s.IP4.TotalLen = 1500
		fl[i] = s
	}
	// Warm-up: every flow tracked, so the loop measures the steady-state
	// update path, not summary churn.
	for i := range fl {
		tier.Observe(fl[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tier.Observe(fl[i%flows])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

// benchSketchTopK: the /api/topk serving cost — rank the 10 largest of a
// full 1024-entry heavy-hitter summary into a reused buffer per op
// (sketch.TopK.Top; 0 allocs/op once the buffer is warm). Sized to stay
// cache-resident so the trajectory tracks the ranking code, not memory
// pressure from the rest of the suite.
func benchSketchTopK(b *testing.B) {
	const keys = 1024
	tk := sketch.NewTopK[sketch.FlowID](keys)
	for i := 0; i < keys; i++ {
		id := sketch.FlowID{
			A:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			B:     netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			APort: uint16(i), BPort: 443,
		}
		tk.Update(id, uint64(i+1)*7919)
	}
	dst := make([]sketch.Item[sketch.FlowID], 0, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tk.Top(dst[:0], 10)
	}
}
