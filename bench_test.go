// Package ruru_bench holds the top-level benchmark targets, one per
// experiment in DESIGN.md §4 / EXPERIMENTS.md. Each wraps the corresponding
// experiments.E* harness (or the hot kernel it measures) in a testing.B so
// `go test -bench=.` regenerates the performance side of the evaluation;
// `cmd/ruru-bench` prints the full human-readable tables.
package ruru_bench

import (
	"io"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"

	"ruru/internal/core"
	"ruru/internal/experiments"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/pkt"
	"ruru/internal/rss"
	"ruru/internal/tsdb"
)

func world(b *testing.B) *geo.World {
	b.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkE1HandshakeEngine measures the measurement fast path: parse +
// RSS hash + handshake-table processing per packet, on a realistic mix.
func BenchmarkE1HandshakeEngine(b *testing.B) {
	g, err := gen.New(gen.Config{
		Seed: 1, World: world(b),
		FlowRate: 10000, Duration: 1e15,
		DataSegments: 2, UDPRate: 2000, MidstreamRate: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	trace := make([]gen.TracePacket, 0, 100000)
	var p gen.Packet
	var bytes int64
	for len(trace) < 100000 && g.Next(&p) {
		frame := make([]byte, len(p.Frame))
		copy(frame, p.Frame)
		trace = append(trace, gen.TracePacket{TS: p.TS, Frame: frame})
		bytes += int64(len(frame))
	}
	table := core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 17, Timeout: 1 << 62})
	h := rss.NewSymmetric()
	var parser pkt.Parser
	var sum pkt.Summary
	var m core.Measurement
	b.SetBytes(bytes / int64(len(trace)))
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

// BenchmarkIngest measures the raw ingest hand-off (inject → RSS queue →
// RxBurst → buffer recycle) per injection mode: the per-frame path versus
// the batched InjectBurst path that amortizes ring synchronization across
// a whole burst. The Frame→ns/op ratio between the two sub-benchmarks is
// the tentpole's amortization win.
func BenchmarkIngest(b *testing.B) {
	const burst = 64
	mkPort := func(b *testing.B) (*nic.Port, *nic.Mempool) {
		b.Helper()
		pool := nic.NewMempool(8192, 2048)
		port, err := nic.NewPort(nic.PortConfig{Queues: 1, QueueDepth: 4096, Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		return port, pool
	}
	frame := func(b *testing.B) []byte {
		b.Helper()
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
		return buf[:n]
	}

	b.Run("frame", func(b *testing.B) {
		port, _ := mkPort(b)
		f := frame(b)
		bufs := make([]*nic.Buf, burst)
		b.ReportAllocs()
		b.SetBytes(int64(len(f)))
		for i := 0; i < b.N; i++ {
			port.InjectPreclassified(f, int64(i), uint32(i))
			if i%burst == burst-1 {
				n, _ := port.RxBurst(0, bufs)
				for j := 0; j < n; j++ {
					bufs[j].Free()
				}
			}
		}
		b.StopTimer()
		n, _ := port.RxBurst(0, bufs)
		for j := 0; j < n; j++ {
			bufs[j].Free()
		}
	})
	b.Run("burst", func(b *testing.B) {
		port, _ := mkPort(b)
		f := frame(b)
		frames := make([]nic.Frame, burst)
		hashes := make([]uint32, burst)
		for i := range frames {
			frames[i] = nic.Frame{Data: f, TS: int64(i)}
			hashes[i] = uint32(i)
		}
		bufs := make([]*nic.Buf, burst)
		b.ReportAllocs()
		b.SetBytes(int64(len(f)))
		for i := 0; i < b.N; i += burst {
			port.InjectPreclassifiedBurst(frames, hashes)
			n, _ := port.RxBurst(0, bufs)
			for j := 0; j < n; j++ {
				bufs[j].Free()
			}
		}
		b.StopTimer()
		n, _ := port.RxBurst(0, bufs)
		for j := 0; j < n; j++ {
			bufs[j].Free()
		}
	})
}

// BenchmarkE2PipelineScaling runs the multi-queue engine at each queue
// count (the Fig. 2 scaling claim) inside one bench iteration.
func BenchmarkE2PipelineScaling(b *testing.B) {
	for _, q := range []int{1, 2, 4, 8} {
		b.Run(benchName("queues", q), func(b *testing.B) {
			b.ReportAllocs()
			rows, err := experiments.E2(experiments.E2Config{
				Seed: 1, QueueList: []int{q},
				TracePkts: 100000, RunPackets: int64(b.N) + 200000,
			}, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rows[0].Mpps, "Mpps")
			b.ReportMetric(rows[0].Gbps, "Gbps")
		})
	}
}

// BenchmarkE3Fanout measures WebSocket broadcast with 8 live clients.
func BenchmarkE3Fanout(b *testing.B) {
	b.ReportAllocs()
	rows, err := experiments.E3(experiments.E3Config{
		ClientList: []int{8}, Messages: max(b.N, 5000),
	}, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[0].MaxAggregateRate, "msg/s-aggregate")
	b.ReportMetric(rows[0].MaxPerClientRate, "msg/s-per-client")
}

// BenchmarkE6GeoLookup measures enrichment database lookups.
func BenchmarkE6GeoLookup(b *testing.B) {
	w := world(b)
	db := w.DB()
	probe := w.Addr(3, 2, 12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Lookup(probe)
	}
}

// BenchmarkE7Toeplitz measures the software RSS hash for v4 and v6 tuples.
func BenchmarkE7Toeplitz(b *testing.B) {
	h := rss.NewSymmetric()
	w := world(b)
	v4a, v4b := w.Addr(0, 0, 1), w.Addr(1, 0, 2)
	v6a, v6b := w.Addr6(0, 0, 1), w.Addr6(1, 0, 2)
	b.Run("ipv4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.HashTuple(v4a, v4b, 40000, 443)
		}
	})
	b.Run("ipv6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.HashTuple(v6a, v6b, 40000, 443)
		}
	})
}

// BenchmarkConsume measures the sink stage's drain rate — Pipeline.Enqueue →
// sharded workers → batched, stripe-locked TSDB writes — at 1 worker (the
// old single-goroutine consumer topology) versus 4. The msg/s ratio between
// the sub-benchmarks is the sharded-sink scaling claim; on a single-CPU box
// the win comes from batching (one ring wakeup, one stripe lock and at most
// one WS frame per burst), not parallelism, so record the measured ratio.
func BenchmarkConsume(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			rows, err := experiments.E11(experiments.E11Config{
				WorkerList: []int{workers}, Messages: max(b.N, 20000),
			}, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if rows[0].Drops != 0 {
				b.Fatalf("sink dropped %d measurements", rows[0].Drops)
			}
			b.ReportMetric(rows[0].Rate, "msg/s")
		})
	}
}

// BenchmarkDBWriteBatch measures concurrent batched TSDB ingest with the
// single global lock (stripes-1, the old layout) versus striped locking.
// Each op writes one 64-point batch; every goroutine owns its own series so
// stripe contention is the only variable. Retention keeps memory bounded at
// any b.N.
func BenchmarkDBWriteBatch(b *testing.B) {
	const batchLen = 64
	for _, stripes := range []int{1, 8} {
		b.Run(benchName("stripes", stripes), func(b *testing.B) {
			db := tsdb.Open(tsdb.Options{ShardDuration: 1e9, Retention: 2e9, Stripes: stripes})
			var worker atomic.Int64
			// One shared clock for all goroutines: with per-goroutine
			// clocks, a writer descheduled behind the leader would fall
			// past the retention horizon and its batches would take the
			// cheap drop path instead of the series append being measured.
			var clock atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				city := "City" + itoa(int(worker.Add(1)))
				batch := make([]tsdb.Point, batchLen)
				for pb.Next() {
					// Reserve a window of batchLen ticks and fill it.
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
		})
	}
}

// BenchmarkDBWriteBatchRef is BenchmarkDBWriteBatch on the interned-handle
// fast path: same series/batch/clock shape, but each goroutine resolves its
// series to a SeriesRef once and then writes RefPoints — no per-point key
// building, tag sorting, map probing or field-name hashing. The ns/op and
// allocs/op deltas against BenchmarkDBWriteBatch are the tentpole numbers
// tracked in BENCH_*.json.
func BenchmarkDBWriteBatchRef(b *testing.B) {
	const batchLen = 64
	for _, stripes := range []int{1, 8} {
		b.Run(benchName("stripes", stripes), func(b *testing.B) {
			db := tsdb.Open(tsdb.Options{ShardDuration: 1e9, Retention: 2e9, Stripes: stripes})
			var worker atomic.Int64
			var clock atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				city := "City" + itoa(int(worker.Add(1)))
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
		})
	}
}

// BenchmarkWriteWAL prices the durability tentpole: one 64-point batched
// write in-memory versus WAL-logged under each fsync policy. The
// mem→interval ratio is the acceptance number (≤15% overhead at the
// production default); "always" pays a real fsync per op when a single
// goroutine can't group-commit, and is here to make that cost visible
// rather than to win.
func BenchmarkWriteWAL(b *testing.B) {
	const batchLen = 64
	for _, mode := range []string{"mem", "wal-off", "wal-interval", "wal-always"} {
		b.Run(mode, func(b *testing.B) {
			opts := tsdb.Options{}
			if mode != "mem" {
				opts.Persist = &tsdb.PersistOptions{
					Dir:   b.TempDir(),
					Fsync: tsdb.FsyncPolicy(strings.TrimPrefix(mode, "wal-")),
					// Manual checkpoints only: the ticker would add noise.
					CheckpointEvery: -1,
				}
			}
			db, err := tsdb.OpenDB(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
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
		})
	}
}

// BenchmarkE8TSDB measures point ingest (write path of every measurement).
func BenchmarkE8TSDB(b *testing.B) {
	db := tsdb.Open(tsdb.Options{ShardDuration: 600e9})
	p := tsdb.Point{
		Name: "latency",
		Tags: []tsdb.Tag{
			{Key: "src_city", Value: "Auckland"},
			{Key: "dst_city", Value: "Los Angeles"},
			{Key: "dst_asn", Value: "64004"},
		},
		Fields: []tsdb.Field{
			{Key: "internal_ms", Value: 15},
			{Key: "external_ms", Value: 130},
			{Key: "total_ms", Value: 145},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Time = int64(i) * 2e6
		if err := db.Write(&p); err != nil {
			b.Fatal(err)
		}
	}
	reportPPS(b, 1)
}

// BenchmarkE9MQ measures one bus publish with a draining subscriber — the
// per-measurement cost of the modular ("ZeroMQ") interconnect.
func BenchmarkE9MQ(b *testing.B) {
	b.ReportAllocs()
	rows, err := experiments.E9(experiments.E9Config{
		Seed: 1, Messages: max(b.N, 10000),
	}, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[1].NsPerMsg, "ns/msg-1hop")
	b.ReportMetric(rows[2].NsPerMsg, "ns/msg-2hop")
}

// reportPPS records sustained points/second for a benchmark whose every op
// writes pointsPerOp TSDB points — the throughput axis of the BENCH_*.json
// trajectory.
func reportPPS(b *testing.B, pointsPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*float64(pointsPerOp)/s, "pps")
	}
}

func benchName(k string, v int) string {
	return k + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
