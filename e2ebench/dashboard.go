package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/geo"
	"ruru/internal/tsdb"
	"ruru/internal/ws"
)

const (
	// history is what the dashboard's persisted TSDB holds when a run
	// starts: one hour ending at base, histRate points/s cycling through
	// every city pair, checkpointed at base−histTail and the last
	// histTail left in the WAL.
	historySpan = int64(3600e9)
	histRate    = 25
	histTail    = int64(600e9)
	// queryEvery is the dashboard's fixed query schedule (100 queries/s,
	// so a 10 s run has the 1000 samples a p99 needs).
	queryEvery = 10 * time.Millisecond
	// probeCount is the closed-loop read-back probe's query count.
	probeCount = 1000
	// lateLimit is the generator schedule limit: an open-loop run whose
	// p99 frame lateness exceeds it is invalid. Frames are timed from their
	// due time either way; past this the schedule itself has broken down.
	lateLimit = 100 * time.Millisecond
	// panelWindow and drillSpan shape the dashboard queries.
	panelWindow = int64(10e9)
	drillSpan   = int64(300e9)
)

// endpointOf resolves an address the way the enricher does, so history
// and warm-up points carry exactly the tags live measurements get.
func endpointOf(world *geo.World, addr netip.Addr) analytics.Endpoint {
	rec, ok := world.DB().Lookup(addr)
	if !ok {
		return analytics.Endpoint{CountryCode: "??", Country: "Unknown", City: "Unknown"}
	}
	return analytics.Endpoint{CountryCode: rec.CountryCode, Country: rec.Country,
		City: rec.City, Lat: rec.Lat, Lon: rec.Lon, ASN: rec.ASN, ASName: rec.ASName}
}

// buildHistory writes the dashboard's persisted history into dir: a
// checkpoint holding all but the last histTail, and a WAL tail with the
// rest. It runs once per invocation, before any clock starts; every setup
// repetition restores a fresh copy.
func buildHistory(dir string, world *geo.World, seed int64) (points int, err error) {
	db, err := tsdb.OpenDB(tsdb.Options{
		Rollups: tsdb.DefaultRollups(), Stripes: 8,
		Persist: &tsdb.PersistOptions{Dir: dir, Fsync: tsdb.FsyncOff, CheckpointEvery: -1},
	})
	if err != nil {
		return 0, fmt.Errorf("history: %w", err)
	}
	defer func() { err = errors.Join(err, db.Close()) }()
	rng := rand.New(rand.NewSource(seed))
	nc := len(world.Cities)
	step := int64(1e9 / histRate)
	batch := make([]tsdb.Point, 0, 256)
	flush := func() error {
		_, err := db.WriteBatch(batch)
		batch = batch[:0]
		return err
	}
	checkpointed := false
	for i, t := 0, base-historySpan; t < base; i, t = i+1, t+step {
		if !checkpointed && t >= base-histTail {
			if err := flush(); err != nil {
				return 0, err
			}
			if _, err := db.Checkpoint(); err != nil {
				return 0, fmt.Errorf("history checkpoint: %w", err)
			}
			checkpointed = true
		}
		src, dst := i%nc, (i/nc)%nc
		in := int64(1e6 + rng.ExpFloat64()*20e6)
		ex := int64(world.Distance(0, dst)/200*1.8*2e6) + int64(rng.ExpFloat64()*5e6)
		e := analytics.Enriched{Time: t, InternalNs: in, ExternalNs: ex, TotalNs: in + ex,
			Src: endpointOf(world, world.Addr(src, rng.Intn(4), uint32(i))),
			Dst: endpointOf(world, world.Addr(dst, rng.Intn(4), uint32(i)))}
		batch = append(batch, analytics.LatencyPoint(&e))
		points++
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	return points, flush()
}

// copyDir copies a TSDB data directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// panelEvery sets the dashboard query mix: query i is a panel — the
// sliding 1 h / 10 s view, grouped by src_city and dst_city in turn — when
// i%panelEvery == 0, otherwise a raw-resolution 5 min / 10 s drill-down on
// the next city pair. A panel renders 8 groups × 360 buckets and costs
// ~100× a drill-down; at 100 queries/s one in 50 is two panel refreshes a
// second, which keeps the run well below saturation on two CPUs.
const panelEvery = 50

// dashQuery builds the i-th query of the mix at virtual time now. Queries
// end on the 10 s boundary after now, so a sliding panel keeps one
// query-cache shape.
func (r *run) dashQuery(i int, now int64) tsdb.Query {
	end := (now/panelWindow + 1) * panelWindow
	q := tsdb.Query{Measurement: "latency", Field: "total_ms", End: end, Window: panelWindow}
	if i%panelEvery == 0 {
		q.GroupBy = "src_city"
		if (i/panelEvery)%2 == 1 {
			q.GroupBy = "dst_city"
		}
		q.Start = end - historySpan
		q.Aggs = []tsdb.AggKind{tsdb.AggCount, tsdb.AggMean, tsdb.AggP95}
		return q
	}
	pr := r.drillPairs[i%len(r.drillPairs)]
	q.Start = end - drillSpan
	q.Aggs = []tsdb.AggKind{tsdb.AggCount, tsdb.AggMean, tsdb.AggP99}
	q.Resolution = tsdb.ResolutionRaw
	q.Where = []tsdb.Tag{{Key: "src_city", Value: pr.src}, {Key: "dst_city", Value: pr.dst}}
	return q
}

// queryRequest encodes q as a GET /api/query request.
func queryRequest(q tsdb.Query) *http.Request {
	v := url.Values{}
	v.Set("measurement", q.Measurement)
	v.Set("field", q.Field)
	v.Set("start", fmt.Sprint(q.Start))
	v.Set("end", fmt.Sprint(q.End))
	if q.Window > 0 {
		v.Set("window", fmt.Sprint(q.Window))
	}
	aggs := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		aggs[i] = string(a)
	}
	v.Set("agg", strings.Join(aggs, ","))
	if q.GroupBy != "" {
		v.Set("group_by", q.GroupBy)
	}
	if q.Resolution == tsdb.ResolutionRaw {
		v.Set("resolution", "raw")
	}
	for _, w := range q.Where {
		v.Add("where", w.Key+":"+w.Value)
	}
	return httptest.NewRequest(http.MethodGet, "/api/query?"+v.Encode(), nil)
}

var groupKey = []byte(`"group":"`)

// groupsOK checks a query response's groups without decoding it: panels
// (grouped queries) must return exactly one group per city, sorted as the
// API promises; drill-downs exactly one ungrouped series.
func (r *run) groupsOK(q tsdb.Query, body []byte) bool {
	var got []string
	for rest := body; ; {
		i := bytes.Index(rest, groupKey)
		if i < 0 {
			break
		}
		rest = rest[i+len(groupKey):]
		j := bytes.IndexByte(rest, '"')
		if j < 0 {
			return false
		}
		got = append(got, string(rest[:j]))
		rest = rest[j:]
	}
	if q.GroupBy == "" {
		return len(got) == 1 && got[0] == ""
	}
	if len(got) != len(r.tr.cities) {
		return false
	}
	for i := range got {
		if got[i] != r.tr.cities[i] {
			return false
		}
	}
	return true
}

// queryStats collects timed dashboard queries.
type queryStats struct {
	lat    []int64
	panel  []int64 // the panels' share of lat
	failed int
	issued int
}

// timedQuery runs query i through the /api/query handler and records its
// latency from due (the schedule slot, or the issue time in a closed loop).
func (r *run) timedQuery(qs *queryStats, i int, due, virtualNow int64) {
	q := r.dashQuery(i, virtualNow)
	rec := httptest.NewRecorder()
	r.srv.ServeHTTP(rec, queryRequest(q))
	done := r.clk.now()
	qs.issued++
	qs.lat = append(qs.lat, done-due)
	if q.GroupBy != "" {
		qs.panel = append(qs.panel, done-due)
	}
	if rec.Code != http.StatusOK || !r.groupsOK(q, rec.Body.Bytes()) {
		qs.failed++
	}
}

// wsClient is a WebSocket client on the loopback interface. A live client
// stamps every measurement it receives (frames are JSON arrays of enriched
// records, one "time" key each); a rollup client counts frames.
type wsClient struct {
	conn   *ws.Conn
	done   chan struct{}
	at     []int64
	n      atomic.Int64
	frames atomic.Int64
}

var timeKey = []byte(`"time":`)

func dialWS(addr, query string, clk clock, capacity int) (*wsClient, error) {
	conn, err := ws.Dial("ws://" + addr + "/ws" + query)
	if err != nil {
		return nil, fmt.Errorf("ws dial: %w", err)
	}
	c := &wsClient{conn: conn, done: make(chan struct{}), at: make([]int64, capacity)}
	go func() {
		defer close(c.done)
		for {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			t := clk.now()
			c.frames.Add(1)
			n := c.n.Load()
			for k := bytes.Count(msg, timeKey); k > 0; k-- {
				if n < int64(len(c.at)) {
					c.at[n] = t
				}
				n++
			}
			c.n.Store(n)
		}
	}()
	return c, nil
}

// close ends the client and waits for its reader.
func (c *wsClient) close() {
	c.conn.Close()
	<-c.done
}

// loopback serves the pipeline's HTTP API on 127.0.0.1 so WebSocket
// traffic crosses the loopback interface (not a real link).
type loopback struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

func (r *run) serveLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{ln: ln, srv: &http.Server{Handler: r.srv, ReadHeaderTimeout: 5 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return lb, nil
}

func (lb *loopback) addr() string { return lb.ln.Addr().String() }

func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
}

// waitClients blocks until the hub has registered the expected clients.
func (r *run) waitClients(live, rollup int) error {
	deadline := time.Now().Add(5 * time.Second)
	for r.p.Hub.LiveClients() != live || r.p.Hub.RollupClients() != rollup {
		if time.Now().After(deadline) {
			return errors.New("websocket clients did not register")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// queryLoop issues the dashboard's fixed-rate schedule until stop closes:
// query i is due at i×queryEvery and timed from then, so a stall delays
// the queries behind it and shows in their latency.
func (r *run) queryLoop(qs *queryStats, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for i := 0; ; i++ {
		due := r.t0 + int64(i)*int64(queryEvery)
		if now := r.clk.now(); due > now {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(due - now)):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		r.timedQuery(qs, i, due, base+due-r.t0)
	}
}

// drillOrder lists every city pair with traffic, sorted, for the
// drill-down rotation.
func drillOrder(truth map[pair]truthAgg) []pair {
	out := make([]pair, 0, len(truth))
	for k := range truth {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	return out
}
