// Package analytics implements the Ruru Analytics stage (paper §2): it
// receives raw latency measurements from the measurement engine, resolves
// both endpoints against the geo/AS database with a pool of workers
// ("retrieve geographical locations ... using multiple threads"), strips
// the IP addresses for privacy, and hands the enriched records to the
// storage and frontend stages.
//
// Inside one process the records travel as typed values: the Enricher is
// the engine's core.Sink, and each worker passes its result to a function
// the embedder supplies. The message bus is an observer-only egress: a
// MarshalMeasurement copy goes to TopicRaw and a MarshalEnriched copy to
// TopicEnriched only while some subscription matches that topic.
package analytics

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"ruru/internal/core"
	"ruru/internal/geo"
	"ruru/internal/mq"
)

// Bus topics the stage publishes observer copies on.
const (
	// TopicRaw carries MarshalMeasurement copies of the engine's output.
	TopicRaw = "ruru.raw"
	// TopicEnriched carries MarshalEnriched copies of the enriched output.
	TopicEnriched = "ruru.enriched"
)

// Stats counts enricher outcomes.
type Stats struct {
	In           uint64 // raw measurements taken off the queue
	Out          uint64 // enriched measurements handed on
	LookupMisses uint64 // endpoints not found in the geo DB
	SubDropped   uint64 // raw measurements dropped at the full queue
}

// Config configures an Enricher.
type Config struct {
	// DB is the geo/AS database. Required.
	DB *geo.DB
	// Bus receives the observer copies on TopicRaw and TopicEnriched.
	// Required.
	Bus *mq.Bus
	// Workers is the enrichment pool size (default 4, the paper uses
	// "multiple threads").
	Workers int
	// HWM is the capacity of the engine→enricher queue (default
	// mq.DefaultHWM); Emit sheds measurements beyond it.
	HWM int
	// Filter, when non-nil, drops enriched measurements for which it
	// returns false before the hand-off and the bus copy — the paper's
	// pluggable filter module ("one could add a filter module ... based
	// on some criteria").
	Filter func(*Enriched) bool
}

// Enricher is the analytics stage.
type Enricher struct {
	cfg     Config
	queue   chan core.Measurement
	handoff func(context.Context, *Enriched)

	in           atomic.Uint64
	out          atomic.Uint64
	lookupMisses atomic.Uint64
	dropped      atomic.Uint64
}

// NewEnricher validates cfg and allocates the input queue. Each worker
// passes every enriched measurement to out, which may block (it gets the
// Run context); a nil out leaves the bus copies as the only output.
func NewEnricher(cfg Config, out func(context.Context, *Enriched)) (*Enricher, error) {
	if cfg.DB == nil {
		return nil, errors.New("analytics: Config.DB is required")
	}
	if cfg.Bus == nil {
		return nil, errors.New("analytics: Config.Bus is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.HWM <= 0 {
		cfg.HWM = mq.DefaultHWM
	}
	return &Enricher{cfg: cfg, queue: make(chan core.Measurement, cfg.HWM), handoff: out}, nil
}

// Stats returns a snapshot of the stage counters.
func (e *Enricher) Stats() Stats {
	return Stats{
		In:           e.in.Load(),
		Out:          e.out.Load(),
		LookupMisses: e.lookupMisses.Load(),
		SubDropped:   e.dropped.Load(),
	}
}

// Emit implements core.Sink: it queues a copy of m for the worker pool.
// It never blocks, so the measurement fast path cannot stall — a full
// queue sheds m and counts it in Stats.SubDropped, the way the paper's
// ZeroMQ sockets shed at their high-water mark. A TopicRaw subscriber
// gets an encoded copy.
func (e *Enricher) Emit(m *core.Measurement) {
	if e.cfg.Bus.HasSubscriber(TopicRaw) {
		// The payload's ownership passes to the subscribers: no reuse.
		e.cfg.Bus.Publish(mq.Message{Topic: TopicRaw, Payload: MarshalMeasurement(nil, m)})
	}
	select {
	case e.queue <- *m:
	default:
		e.dropped.Add(1)
	}
}

// Run processes measurements until ctx is cancelled. Whatever is still
// queued then is abandoned.
func (e *Enricher) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

func (e *Enricher) worker(ctx context.Context) {
	var enriched Enriched
	var scratch []byte
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-e.queue:
			e.in.Add(1)
			e.enrich(&m, &enriched)
			if e.cfg.Filter != nil && !e.cfg.Filter(&enriched) {
				continue
			}
			if e.cfg.Bus.HasSubscriber(TopicEnriched) {
				// Encode into reused scratch, publish an exact-size copy:
				// the bus does not copy and subscribers keep the payload.
				scratch = MarshalEnriched(scratch, &enriched)
				e.cfg.Bus.Publish(mq.Message{Topic: TopicEnriched, Payload: bytes.Clone(scratch)})
			}
			if e.handoff != nil {
				e.handoff(ctx, &enriched)
			}
			e.out.Add(1)
		}
	}
}

// enrich resolves both endpoints and fills the anonymized record. This is
// the moment IP addresses leave the pipeline.
func (e *Enricher) enrich(m *core.Measurement, out *Enriched) {
	*out = Enriched{
		Time:       m.ACKTime,
		InternalNs: m.Internal,
		ExternalNs: m.External,
		TotalNs:    m.Total,
		IPv6:       m.IPv6,
		SYNRetrans: m.SYNRetrans,
	}
	if rec, ok := e.cfg.DB.Lookup(m.Flow.Client); ok {
		out.Src = Endpoint{CountryCode: rec.CountryCode, Country: rec.Country,
			City: rec.City, Lat: rec.Lat, Lon: rec.Lon, ASN: rec.ASN, ASName: rec.ASName}
	} else {
		e.lookupMisses.Add(1)
		out.Src = Endpoint{CountryCode: "??", Country: "Unknown", City: "Unknown"}
	}
	if rec, ok := e.cfg.DB.Lookup(m.Flow.Server); ok {
		out.Dst = Endpoint{CountryCode: rec.CountryCode, Country: rec.Country,
			City: rec.City, Lat: rec.Lat, Lon: rec.Lon, ASN: rec.ASN, ASName: rec.ASName}
	} else {
		e.lookupMisses.Add(1)
		out.Dst = Endpoint{CountryCode: "??", Country: "Unknown", City: "Unknown"}
	}
}
