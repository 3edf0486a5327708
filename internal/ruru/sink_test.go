package ruru

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/tsdb"
)

// enrichedItems builds one enriched measurement per city pair for tests
// that enqueue straight into the sink stage (Enqueue copies its argument,
// so reuse is safe).
func enrichedItems(pairs int) []analytics.Enriched {
	out := make([]analytics.Enriched, pairs)
	for i := range out {
		out[i] = analytics.Enriched{
			Time: 1e9, InternalNs: 15e6, ExternalNs: 130e6, TotalNs: 145e6,
			Src: analytics.Endpoint{City: fmt.Sprintf("SrcCity%d", i), CountryCode: "NZ",
				Lat: -36.85, Lon: 174.76, ASN: uint32(64000 + i)},
			Dst: analytics.Endpoint{City: fmt.Sprintf("DstCity%d", i), CountryCode: "US",
				Lat: 34.05, Lon: -118.24, ASN: 64500},
		}
	}
	return out
}

// ledger sums every term a completed measurement can end in: stored,
// shed before the sink, behind the retention horizon, or refused by a
// failing write (see the Stats doc).
func ledger(st Stats) uint64 {
	return st.DBPoints + st.SinkDrop + st.DBDropped + st.DBWriteErrors
}

func TestSinkShardedLosslessAndAccounted(t *testing.T) {
	// The sharded sink's contract: at a sustained load driven straight into
	// its ingress, the 4-worker sink stores every measurement — zero drops —
	// so the ledger enqueued == stored + named-losses balances exactly.
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 1, SinkWorkers: 4, SinkBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()

	const total = 1 << 16
	items := enrichedItems(32)
	// Enqueue blocks while a shard is full, so the producer is
	// flow-controlled by the sink itself.
	for i := 0; i < total; i++ {
		p.Enqueue(ctx, &items[i%len(items)])
	}

	deadline := time.After(30 * time.Second)
	for {
		st := p.Stats()
		if ledger(st) >= total {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("sink never drained: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done

	st := p.Stats()
	if st.SinkDrop != 0 {
		t.Fatalf("sink dropped %d measurements at the HWM", st.SinkDrop)
	}
	if st.DBPoints != total {
		t.Fatalf("stored %d/%d points", st.DBPoints, total)
	}
	if st.DBDropped != 0 {
		t.Fatalf("unexpected retention drops: %d", st.DBDropped)
	}
	// Every series landed, one per city pair.
	res, err := p.DB.Execute(tsdb.Query{
		Measurement: "latency", Field: "total_ms", Start: 0, End: 2e9,
		GroupBy: "src_city", Aggs: []tsdb.AggKind{tsdb.AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(items) {
		t.Fatalf("%d src_city groups, want %d", len(res), len(items))
	}
	counted := 0
	for _, r := range res {
		counted += r.Buckets[0].Count
	}
	if counted != total {
		t.Fatalf("query counts %d/%d points", counted, total)
	}
}

func TestSinkConcurrencyStress(t *testing.T) {
	// Race contract for the whole sink stage (run under -race in CI):
	// several producers enqueueing into the sink's ingress, the sharded
	// workers feeding spike/surge/flood detectors and per-shard arc rings,
	// while Stats, RecentArcs, SpikeEvents, FloodEvents and TSDB queries
	// all read concurrently — plus synchronous Feed calls racing the
	// workers on the same shards.
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 1, SinkWorkers: 4, SinkBatch: 32, ArcsBuffer: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()

	const (
		producers   = 4
		perProducer = 8000
	)
	items := enrichedItems(16)
	var wg sync.WaitGroup
	for n := 0; n < producers; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				p.Enqueue(ctx, &items[(n+i)%len(items)])
			}
		}(n)
	}
	var feeds uint64
	wg.Add(1)
	go func() { // synchronous Feed racing the workers
		defer wg.Done()
		e := analytics.Enriched{
			TotalNs: 145e6,
			Src:     analytics.Endpoint{City: "SrcCity0", Lat: 1, Lon: 2},
			Dst:     analytics.Endpoint{City: "DstCity0", Lat: 3, Lon: 4},
		}
		for i := 0; i < 2000; i++ {
			e.Time = int64(i) * 1e6
			p.Feed(&e)
			feeds++
		}
	}()
	readersStop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-readersStop:
				return
			default:
				p.Stats()
				p.RecentArcs(100)
				p.SpikeEvents()
				p.FloodEvents()
				p.DB.Execute(tsdb.Query{
					Measurement: "latency", Field: "total_ms",
					Start: 0, End: 10e9, GroupBy: "src_city",
					Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggP95},
				})
			}
		}
	}()
	wg.Wait()

	published := uint64(producers * perProducer)
	deadline := time.After(30 * time.Second)
	for {
		st := p.Stats()
		// Feeds wrote synchronously, so they are already inside DBPoints;
		// wait for the enqueued remainder to drain through workers.
		if ledger(st) >= published+feeds {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("ledger never balanced: %+v (published %d + feeds %d)", st, published, feeds)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(readersStop)
	readers.Wait()
	cancel()
	<-done

	st := p.Stats()
	if got := ledger(st); got != published+feeds {
		t.Fatalf("ledger: accounted %d, want %d (stats %+v)", got, published+feeds, st)
	}
	if arcs := p.RecentArcs(0); len(arcs) == 0 {
		t.Fatal("no arcs retained")
	}
}

func TestSinkRetentionDropAccounted(t *testing.T) {
	// A point behind the retention horizon is refused at write time and
	// must surface in Stats().DBDropped (previously discarded silently).
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), ShardDuration: 1e9, Retention: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	e := analytics.Enriched{
		TotalNs: 145e6,
		Src:     analytics.Endpoint{City: "Auckland"},
		Dst:     analytics.Endpoint{City: "Los Angeles"},
	}
	e.Time = 100e9
	p.Feed(&e)
	e.Time = 1e9 // far behind the horizon set by the first point
	p.Feed(&e)
	st := p.Stats()
	if st.DBPoints != 1 || st.DBDropped != 1 {
		t.Fatalf("DBPoints=%d DBDropped=%d, want 1/1", st.DBPoints, st.DBDropped)
	}
}
