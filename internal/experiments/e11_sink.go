package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/geo"
	"ruru/internal/ruru"
)

// E11Row is one point of the sink-stage throughput experiment: the rate at
// which a given number of sharded sink workers drains the enriched stream
// into the TSDB (batched, stripe-locked writes), with the measurement-loss
// ledger alongside. The Workers=1 row is the old single-goroutine consumer
// topology; the ratio against it is the tentpole's scaling claim.
type E11Row struct {
	Workers  int
	Stripes  int
	Messages int
	Stored   uint64
	Drops    uint64  // SinkDrop: measurements shed before the sink
	Rate     float64 // stored measurements per wall-clock second
}

// E11Config parameterizes the sink sweep.
type E11Config struct {
	WorkerList []int // default {1, 4}
	Messages   int   // measurements per row (default 200k)
	Batch      int   // sink batch size (default 64)
	Stripes    int   // TSDB lock stripes (default 8)
	Pairs      int   // distinct city pairs, i.e. shard keys (default 32)
}

// E11 enqueues enriched measurements straight into the sink stage through
// Pipeline.Enqueue — isolating the storage/visualization stage from packet
// processing — and measures how fast each sink configuration drains them.
// Enqueue blocks while the owning shard is full, so the producer runs at
// the sink's drain rate and nothing is shed.
func E11(cfg E11Config, w io.Writer) ([]E11Row, error) {
	if len(cfg.WorkerList) == 0 {
		cfg.WorkerList = []int{1, 4}
	}
	if cfg.Messages <= 0 {
		cfg.Messages = 200_000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 8
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 32
	}
	items := make([]analytics.Enriched, cfg.Pairs)
	for i := range items {
		items[i] = analytics.Enriched{
			Time: 1e9, InternalNs: 15e6, ExternalNs: 130e6, TotalNs: 145e6,
			Src: analytics.Endpoint{City: fmt.Sprintf("SrcCity%d", i), CountryCode: "NZ",
				Lat: -36.85, Lon: 174.76, ASN: uint32(64000 + i)},
			Dst: analytics.Endpoint{City: fmt.Sprintf("DstCity%d", i), CountryCode: "US",
				Lat: 34.05, Lon: -118.24, ASN: 64500},
		}
	}

	if w != nil {
		fmt.Fprintf(w, "E11: sharded sink drain rate (%d measurements, batch %d, %d DB stripes, %d city pairs)\n",
			cfg.Messages, cfg.Batch, cfg.Stripes, cfg.Pairs)
		fmt.Fprintf(w, "  %-8s %12s %10s %12s\n", "workers", "stored", "drops", "msg/s")
	}
	rows := make([]E11Row, 0, len(cfg.WorkerList))
	for _, workers := range cfg.WorkerList {
		row, err := e11Run(workers, cfg, items)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "  %-8d %12d %10d %12.0f\n",
				row.Workers, row.Stored, row.Drops, row.Rate)
		}
	}
	return rows, nil
}

func e11Run(workers int, cfg E11Config, items []analytics.Enriched) (row E11Row, err error) {
	row = E11Row{Workers: workers, Stripes: cfg.Stripes, Messages: cfg.Messages}
	world, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		return row, err
	}
	p, err := ruru.New(ruru.Config{
		GeoDB:       world.DB(),
		Queues:      1, // no packet traffic; keep idle pollers minimal
		SinkWorkers: workers,
		SinkBatch:   cfg.Batch,
		DBStripes:   cfg.Stripes,
	})
	if err != nil {
		return row, err
	}
	defer func() {
		if cerr := p.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()

	accounted := func() uint64 {
		st := p.Stats()
		return st.DBPoints + st.SinkDrop + st.DBDropped + st.DBWriteErrors
	}
	start := time.Now()
	for i := 0; i < cfg.Messages; i++ {
		p.Enqueue(ctx, &items[i%len(items)])
	}
	deadline := time.Now().Add(60 * time.Second)
	for accounted() < uint64(cfg.Messages) {
		if time.Now().After(deadline) {
			return row, fmt.Errorf("e11: sink never drained (%+v)", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	cancel()
	<-done

	st := p.Stats()
	row.Stored = st.DBPoints
	row.Drops = st.SinkDrop
	row.Rate = float64(st.DBPoints) / elapsed.Seconds()
	return row, nil
}
