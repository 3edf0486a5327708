package ruru

import (
	"context"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/mq"
	"ruru/internal/nic"
	"ruru/internal/tsdb"
)

// runPipeline runs p until the test ends.
func runPipeline(t *testing.T, p *Pipeline) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// injectFlows drives a generated trace into p's port and returns how
// many of its flows complete.
func injectFlows(t *testing.T, p *Pipeline, cfg gen.Config) uint64 {
	t.Helper()
	g, err := gen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.RunToPortBurst(p.Port, 32) == 0 {
		t.Fatal("nothing injected")
	}
	var completing uint64
	for _, tr := range g.Truths() {
		if tr.Completes {
			completing++
		}
	}
	return completing
}

// waitFor polls p's stats until cond holds, failing the test after 30 s.
func waitFor(t *testing.T, p *Pipeline, what string, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := p.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLedgerBalancesWhenEnricherQueueOverflows(t *testing.T) {
	// Only the engine runs at first, so its measurements pile up in the
	// engine→enricher queue and the overflow is shed there. That loss
	// must land in SinkDrop: the ledger balances with every stage drained.
	w := newWorld(t)
	p, err := New(Config{
		GeoDB: w.DB(), Queues: 1, Overflow: nic.Block, HandshakeTimeout: 60e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		p.Engine.Run(ctx)
	}()
	completing := injectFlows(t, p, gen.Config{Seed: 11, World: w, FlowRate: 9000, Duration: 4e9})
	if completing <= enrichQueueDepth {
		t.Fatalf("only %d completing flows: the queue (%d) cannot overflow", completing, enrichQueueDepth)
	}
	for p.Engine.Stats().Completed < completing {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-engineDone

	runPipeline(t, p)
	st := waitFor(t, p, "the queued measurements to be stored", func(st Stats) bool {
		return ledger(st) >= st.Engine.Completed || st.DBPoints >= enrichQueueDepth
	})
	if st.Engine.Completed != completing {
		t.Fatalf("engine completed %d, want %d", st.Engine.Completed, completing)
	}
	if st.Engine.Completed != ledger(st) {
		t.Fatalf("ledger unbalanced: completed %d != stored %d + sink drop %d + db dropped %d + write err %d",
			st.Engine.Completed, st.DBPoints, st.SinkDrop, st.DBDropped, st.DBWriteErrors)
	}
	if st.SinkDrop == 0 || st.SinkDrop != st.Enricher.SubDropped {
		t.Fatalf("SinkDrop %d, enricher SubDropped %d: want the same non-zero count",
			st.SinkDrop, st.Enricher.SubDropped)
	}
	if st.DBPoints != enrichQueueDepth {
		t.Fatalf("stored %d, want the queue's %d", st.DBPoints, enrichQueueDepth)
	}
}

func TestBusCopiesOnlyForSubscribers(t *testing.T) {
	// The bus is an observer-only egress: with no subscriber nothing is
	// encoded or published, and a subscriber attached mid-run receives
	// every later measurement, decoding to what the sink stored.
	w := newWorld(t)
	p, err := New(Config{
		GeoDB: w.DB(), Queues: 2, Overflow: nic.Block, HandshakeTimeout: 60e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	runPipeline(t, p)

	trace := gen.Config{World: w, FlowRate: 300, Duration: 1e9, DataSegments: 1}
	trace.Seed = 1
	before := injectFlows(t, p, trace)
	st := waitFor(t, p, "the first trace to be stored", func(st Stats) bool {
		return st.Engine.Completed == before && ledger(st) == before
	})
	if st.BusPub != 0 || st.DBPoints != before {
		t.Fatalf("no subscriber: BusPub %d (want 0), stored %d of %d", st.BusPub, st.DBPoints, before)
	}

	rawSub, err := p.Bus.Subscribe(TopicRaw, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	enrSub, err := p.Bus.Subscribe(TopicEnriched, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	trace.Seed = 2
	after := injectFlows(t, p, trace)
	st = waitFor(t, p, "the second trace to be stored", func(st Stats) bool {
		return st.Engine.Completed == before+after && ledger(st) == before+after
	})
	if st.SinkDrop != 0 || st.DBPoints != before+after {
		t.Fatalf("stored %d of %d (sink drop %d)", st.DBPoints, before+after, st.SinkDrop)
	}
	if st.BusPub != 2*after || st.BusDrop != 0 {
		t.Fatalf("BusPub %d BusDrop %d, want one raw and one enriched copy per later measurement (%d)",
			st.BusPub, st.BusDrop, after)
	}

	// What the sink stored: the arc rings hold every enriched record.
	stored := map[analytics.Enriched]int{}
	byACK := map[[4]int64]int{}
	for _, e := range p.RecentArcs(0) {
		stored[e]++
		byACK[[4]int64{e.Time, e.InternalNs, e.ExternalNs, e.TotalNs}]++
	}
	if len(p.RecentArcs(0)) != int(before+after) {
		t.Fatalf("arc rings hold %d records, want %d", len(p.RecentArcs(0)), before+after)
	}
	for i := uint64(0); i < after; i++ {
		var e analytics.Enriched
		if err := analytics.UnmarshalEnriched(recv(t, enrSub).Payload, &e); err != nil {
			t.Fatal(err)
		}
		if stored[e] == 0 {
			t.Fatalf("enriched copy %+v matches no stored record", e)
		}
		stored[e]--
		var m core.Measurement
		if err := analytics.UnmarshalMeasurement(recv(t, rawSub).Payload, &m); err != nil {
			t.Fatal(err)
		}
		k := [4]int64{m.ACKTime, m.Internal, m.External, m.Total}
		if byACK[k] == 0 {
			t.Fatalf("raw copy %+v matches no stored record", m)
		}
		byACK[k]--
	}
	for _, sub := range []*mq.Subscription{rawSub, enrSub} {
		select {
		case msg := <-sub.C():
			t.Fatalf("extra %s copy beyond the %d later measurements", msg.Topic, after)
		default:
		}
	}
	res, err := p.DB.Execute(tsdb.Query{
		Measurement: "latency", Field: "total_ms", Start: 0, End: 60e9,
		Aggs: []tsdb.AggKind{tsdb.AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Buckets[0].Count != int(before+after) {
		t.Fatalf("TSDB holds %+v, want %d latency points", res, before+after)
	}
}

func recv(t *testing.T, sub *mq.Subscription) mq.Message {
	t.Helper()
	select {
	case msg := <-sub.C():
		return msg
	case <-time.After(5 * time.Second):
		t.Fatal("observer copy never arrived")
		return mq.Message{}
	}
}
