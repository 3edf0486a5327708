package experiments

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/ws"
)

// E3Row is one point of the frontend fan-out experiment (paper §3:
// "visualizes multiple thousands of connections per second on a live 3D map
// on-the-fly"). Two numbers matter: the maximum rate at which every
// connected client can actually be fed (sustained delivery), and whether a
// paced measurement stream at the paper's claimed scale flows with zero
// loss.
type E3Row struct {
	Clients int

	// Max-rate phase: broadcast as fast as clients drain.
	MaxPerClientRate float64 // delivered msgs/s per client
	MaxAggregateRate float64 // delivered msgs/s across all clients

	// Paced phase at PacedRate msg/s (default 5000 — "multiple
	// thousands of connections per second").
	PacedRate    float64
	PacedLossPct float64
}

// E3Config parameterizes the fan-out sweep.
type E3Config struct {
	ClientList []int   // default {1, 4, 16}
	Messages   int     // messages per phase (default 50k)
	HubQueue   int     // per-client queue (default 8192)
	PacedRate  float64 // default 5000 msg/s
}

// E3 runs the sweep against real WebSocket connections over loopback.
func E3(cfg E3Config, w io.Writer) ([]E3Row, error) {
	if len(cfg.ClientList) == 0 {
		cfg.ClientList = []int{1, 4, 16}
	}
	if cfg.Messages <= 0 {
		cfg.Messages = 50_000
	}
	if cfg.HubQueue <= 0 {
		cfg.HubQueue = 8192
	}
	if cfg.PacedRate <= 0 {
		cfg.PacedRate = 5000
	}
	e := analytics.Enriched{
		Time: 1700000000000000000, InternalNs: 15e6, ExternalNs: 130e6, TotalNs: 145e6,
		Src: analytics.Endpoint{CountryCode: "NZ", Country: "New Zealand", City: "Auckland",
			Lat: -36.85, Lon: 174.76, ASN: 64000, ASName: "AS-Auckland-0"},
		Dst: analytics.Endpoint{CountryCode: "US", Country: "United States", City: "Los Angeles",
			Lat: 34.05, Lon: -118.24, ASN: 64004, ASName: "AS-LosAngeles-0"},
	}
	payload := analytics.AppendEnrichedJSON(nil, &e)

	if w != nil {
		fmt.Fprintf(w, "E3: WebSocket live-map fan-out (%dB JSON frames; paced phase at %.0f msg/s)\n",
			len(payload), cfg.PacedRate)
		fmt.Fprintf(w, "  %-8s %16s %16s %14s\n", "clients", "max msg/s/client", "max aggregate/s", "paced loss")
	}
	rows := make([]E3Row, 0, len(cfg.ClientList))
	for _, n := range cfg.ClientList {
		row, err := e3Run(n, cfg, payload)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "  %-8d %16.0f %16.0f %13.2f%%\n",
				row.Clients, row.MaxPerClientRate, row.MaxAggregateRate, row.PacedLossPct)
		}
	}
	return rows, nil
}

type e3Harness struct {
	hub       *ws.Hub
	srv       *httptest.Server
	conns     []*ws.Conn
	delivered *atomic.Uint64
}

func e3Setup(clients, hubQueue int) (*e3Harness, error) {
	hub := ws.NewHub(hubQueue)
	srv := httptest.NewServer(hub)
	url := "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/"
	h := &e3Harness{hub: hub, srv: srv, delivered: new(atomic.Uint64)}
	for i := 0; i < clients; i++ {
		c, err := ws.Dial(url)
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, c)
		go func(c *ws.Conn) {
			for {
				if _, _, err := c.ReadMessage(); err != nil {
					return
				}
				h.delivered.Add(1)
			}
		}(c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hub.Clients() < clients {
		if time.Now().After(deadline) {
			h.close()
			return nil, fmt.Errorf("only %d/%d clients connected", hub.Clients(), clients)
		}
		time.Sleep(time.Millisecond)
	}
	return h, nil
}

func (h *e3Harness) close() {
	for _, c := range h.conns {
		c.Close()
	}
	h.hub.Close()
	h.srv.Close()
}

func e3Run(clients int, cfg E3Config, payload []byte) (E3Row, error) {
	row := E3Row{Clients: clients, PacedRate: cfg.PacedRate}

	// Phase 1: maximum sustained delivery. Broadcast with back-pressure:
	// when any client queue is saturated the hub drops, so we throttle to
	// the drain rate by watching the delivered counter.
	{
		h, err := e3Setup(clients, cfg.HubQueue)
		if err != nil {
			return row, err
		}
		start := time.Now()
		sent := 0
		for sent < cfg.Messages {
			// Keep at most one queue-depth in flight per client.
			inFlight := uint64(sent*clients) - h.delivered.Load()
			if inFlight > uint64(cfg.HubQueue*clients/2) {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			h.hub.Broadcast(payload)
			sent++
		}
		deadline := time.Now().Add(30 * time.Second)
		for h.delivered.Load() < uint64(sent*clients) {
			sentHub, dropped := h.hub.Stats()
			if h.delivered.Load() >= sentHub && sentHub+dropped >= uint64(sent*clients) {
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		elapsed := time.Since(start)
		row.MaxAggregateRate = float64(h.delivered.Load()) / elapsed.Seconds()
		row.MaxPerClientRate = row.MaxAggregateRate / float64(clients)
		h.close()
	}

	// Phase 2: paced at the paper's claimed scale; loss must be ~0.
	{
		h, err := e3Setup(clients, cfg.HubQueue)
		if err != nil {
			return row, err
		}
		interval := time.Duration(float64(time.Second) / cfg.PacedRate)
		msgs := cfg.Messages / 5
		if msgs > 20000 {
			msgs = 20000
		}
		start := time.Now()
		for i := 0; i < msgs; i++ {
			target := start.Add(time.Duration(i) * interval)
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
			h.hub.Broadcast(payload)
		}
		deadline := time.Now().Add(10 * time.Second)
		for h.delivered.Load() < uint64(msgs*clients) {
			_, dropped := h.hub.Stats()
			if h.delivered.Load()+dropped >= uint64(msgs*clients) {
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		lost := uint64(msgs*clients) - h.delivered.Load()
		row.PacedLossPct = 100 * float64(lost) / float64(msgs*clients)
		h.close()
	}
	return row, nil
}
