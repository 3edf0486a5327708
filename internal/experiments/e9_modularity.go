package experiments

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/core"
	"ruru/internal/geo"
	"ruru/internal/mq"
)

// E9Row measures the cost of the paper's modularity claim (§2: "Due to the
// modular nature of the pipeline, and the use of ZeroMQ sockets ... Ruru
// can be easily extended ... one could add a filter module"): measurement
// throughput from the engine's sink call to the final sink with no stage
// between them, with the enricher's typed hand-offs, and with a live filter
// module spliced in over the bus.
type E9Row struct {
	Topology  string
	Messages  int
	Elapsed   time.Duration
	MsgPerSec float64
	NsPerMsg  float64
}

// E9Config parameterizes the hop benchmark.
type E9Config struct {
	Seed     int64
	Messages int // default 300k
}

// E9 runs the benchmark.
func E9(cfg E9Config, w io.Writer) ([]E9Row, error) {
	if cfg.Messages <= 0 {
		cfg.Messages = 300_000
	}
	world, err := geo.NewWorld(geo.WorldOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	m := core.Measurement{
		Flow: core.FlowKey{
			Client:     world.Addr(0, 1, 42),
			Server:     world.Addr(1, 2, 99),
			ClientPort: 40000, ServerPort: 443,
		},
		Internal: 15e6, External: 130e6, Total: 145e6, ACKTime: 1,
	}

	if w != nil {
		fmt.Fprintf(w, "E9: modularity — stages between engine and sink (%d measurements)\n", cfg.Messages)
		fmt.Fprintf(w, "  %-34s %10s %12s %10s\n", "topology", "elapsed", "msg/s", "ns/msg")
	}
	var rows []E9Row

	// Topology A: direct function-call sink (no bus) — the floor.
	{
		var count atomic.Uint64
		sink := core.SinkFunc(func(*core.Measurement) { count.Add(1) })
		start := time.Now()
		for i := 0; i < cfg.Messages; i++ {
			sink.Emit(&m)
		}
		rows = append(rows, e9Row("direct (no bus)", cfg.Messages, time.Since(start), w))
	}

	// Topology B: engine → queue → enricher → hand-off → sink, typed
	// values throughout. The paper's production layout: one analytics hop.
	{
		elapsed, err := e9Enricher(world, &m, cfg.Messages, false)
		if err != nil {
			return rows, err
		}
		rows = append(rows, e9Row("enricher (paper layout)", cfg.Messages, elapsed, w))
	}

	// Topology C: as B plus a filter module spliced in as an observer of
	// the enriched topic, re-publishing to a third topic the sink reads.
	{
		elapsed, err := e9Enricher(world, &m, cfg.Messages, true)
		if err != nil {
			return rows, err
		}
		rows = append(rows, e9Row("enricher + bus filter module", cfg.Messages, elapsed, w))
	}
	return rows, nil
}

func e9Row(name string, msgs int, elapsed time.Duration, w io.Writer) E9Row {
	row := E9Row{
		Topology:  name,
		Messages:  msgs,
		Elapsed:   elapsed,
		MsgPerSec: float64(msgs) / elapsed.Seconds(),
		NsPerMsg:  float64(elapsed.Nanoseconds()) / float64(msgs),
	}
	if w != nil {
		fmt.Fprintf(w, "  %-34s %10s %12.0f %10.0f\n",
			row.Topology, row.Elapsed.Round(time.Millisecond), row.MsgPerSec, row.NsPerMsg)
	}
	return row
}

const e9FilteredTopic = "ruru.filtered"

func e9Enricher(world *geo.World, m *core.Measurement, messages int, withFilter bool) (time.Duration, error) {
	bus := mq.NewBus()
	defer bus.Close()
	var received atomic.Uint64
	sink := func(context.Context, *analytics.Enriched) { received.Add(1) }
	if withFilter {
		sink = nil // the sink reads the filter module's topic instead
	}
	// Queue and HWMs sized to the full run: this measures hop cost, not
	// shedding.
	enr, err := analytics.NewEnricher(analytics.Config{
		DB: world.DB(), Bus: bus, Workers: 2, HWM: messages + 1,
	}, sink)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go enr.Run(ctx)

	if withFilter {
		// The filter module: observe enriched, drop nothing (worst case
		// for overhead), republish on a new topic.
		filterSub, err := bus.Subscribe(analytics.TopicEnriched, messages+1)
		if err != nil {
			return 0, err
		}
		out, err := bus.Subscribe(e9FilteredTopic, messages+1)
		if err != nil {
			return 0, err
		}
		go func() {
			var e analytics.Enriched
			for msg := range filterSub.C() {
				if analytics.UnmarshalEnriched(msg.Payload, &e) != nil {
					continue
				}
				if e.TotalNs < 0 { // never: pass-through filter
					continue
				}
				bus.Publish(mq.Message{Topic: e9FilteredTopic, Payload: msg.Payload})
			}
		}()
		go func() {
			for range out.C() {
				received.Add(1)
			}
		}()
	}

	start := time.Now()
	for i := 0; i < messages; i++ {
		enr.Emit(m)
	}
	deadline := time.Now().Add(60 * time.Second)
	for received.Load() < uint64(messages) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("stalled: %d/%d delivered (filter %v)", received.Load(), messages, withFilter)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start), nil
}
