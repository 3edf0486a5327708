package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/tsdb"
)

// runWorkload performs one benchmark run: render, set up, drive, settle,
// check, and — for --trace 1 — the traced run's staged replay.
func runWorkload(wl *workload, o options) (res *result, err error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	world, err := geo.NewWorld(geo.WorldOptions{Cities: worldCities, Seed: 1})
	if err != nil {
		return nil, err
	}
	cfg := wl.lap
	cfg.Seed, cfg.World = o.seed, world
	tr, err := renderTrace(cfg, world)
	if err != nil {
		return nil, err
	}
	r := &run{wl: wl, opts: o, world: world, tr: tr, drillPairs: drillOrder(tr.truth), clk: newClock()}
	if wl.dashboard {
		r.laps = int(math.Ceil(float64(o.seconds) * 1e9 / float64(tr.span)))
	} else {
		r.laps = int(math.Round(float64(o.seconds) * wl.lapsPerSecond))
	}
	r.laps = max(r.laps, 2)
	if o.trace {
		r.laps = max(r.laps, 4) // warm-up lap plus traced and untraced laps
	}
	r.expected = r.laps * tr.completes()
	r.due = make([]int64, r.expected)
	r.storedAt = make([]int64, r.expected)
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed=%d: lap %d pkts %d meas span %.3fs, %d laps\n",
		wl.name, o.seed, tr.packets(), tr.completes(), float64(tr.span)/1e9, r.laps)

	defer func() { err = errors.Join(err, r.shutdown()) }()
	histDir := ""
	histPoints := 0
	if wl.dashboard {
		histDir = filepath.Join(o.workdir, fmt.Sprintf("history-%d", os.Getpid()))
		r.dirs = append(r.dirs, histDir)
		if histPoints, err = buildHistory(histDir, world, o.seed); err != nil {
			return nil, err
		}
	}
	setupS, setupN, err := r.setup(histDir)
	if err != nil {
		return nil, err
	}
	if histPoints > 0 && r.p.Stats().Persist.RestoredPoints+r.p.Stats().Persist.WALReplayedPoints != uint64(histPoints) {
		return nil, fmt.Errorf("gate: history of %d points did not restore in full", histPoints)
	}
	r.warmUp()

	// Every workload carries one live WebSocket client on loopback, so push
	// latency is measured on live traffic; the dashboard adds a
	// ?stream=rollup client.
	lb, err := r.serveLoopback()
	if err != nil {
		return nil, err
	}
	defer lb.close()
	live, err := dialWS(lb.addr(), "", r.clk, r.expected)
	if err != nil {
		return nil, err
	}
	defer live.close()
	var rollup *wsClient
	if wl.dashboard {
		if rollup, err = dialWS(lb.addr(), "?stream=rollup", r.clk, 0); err != nil {
			return nil, err
		}
		defer rollup.close()
	}
	rollups := 0
	if rollup != nil {
		rollups = 1
	}
	if err := r.waitClients(1, rollups); err != nil {
		return nil, err
	}

	heap0 := heapBaseline()
	var tc *tracer
	if o.trace {
		tc = newTracer(r)
	}
	r.t0 = r.clk.now()
	cpu0 := cpuTime()
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go r.monitor(stopMon, &monWG)

	var qs queryStats
	stopQ := make(chan struct{})
	var qWG sync.WaitGroup
	if wl.dashboard {
		qWG.Add(1)
		go r.queryLoop(&qs, stopQ, &qWG)
	}

	frames := make([]nic.Frame, 0, 256)
	k := 0
	mark := func() {
		r.marks = append(r.marks, lapMark{t: r.clk.now(), cpu: int64(cpuTime()),
			accepted: int64(r.accepted), stored: r.storedCount()})
	}
	mark()
	for lap := 0; lap < r.laps; lap++ {
		if tc != nil {
			if err := tc.beforeLap(lap, k); err != nil {
				return nil, err
			}
		}
		if wl.dashboard {
			t0 := r.t0 + int64(lap)*tr.span
			if tc != nil {
				t0 = r.clk.now()
			}
			frames = r.injectOpen(lap, t0, &k, frames)
		} else {
			frames = r.injectClosed(lap, &k, frames)
		}
		if tc != nil {
			if err := tc.afterLap(lap, k); err != nil {
				return nil, err
			}
		}
		mark()
	}
	close(stopQ)
	qWG.Wait()
	settled := r.waitStored(r.expected, settleTimeout)
	if settled {
		r.wallEnd = r.storedAt[r.expected-1]
	} else {
		r.wallEnd = r.clk.now()
	}
	r.cpuUsed = int64(cpuTime() - cpu0)
	close(stopMon)
	monWG.Wait()
	// The live heap only moves at a GC; one more after the run makes sure
	// the stored data is counted even when none ran during it.
	r.heapPeak = max(r.heapPeak, heapBaseline())
	deadline := time.Now().Add(5 * time.Second)
	for live.n.Load() < int64(r.expected) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !wl.dashboard {
		qs = r.queryProbe()
	}
	if err := r.gate(settled, &qs); err != nil {
		return nil, err
	}
	if late := distOf(r.late); late.n > 0 && late.p99 > float64(lateLimit)/1e6 {
		return nil, fmt.Errorf("invalid run: generator p99 lateness %.3f ms exceeds the %v limit", late.p99, lateLimit)
	}
	res = r.metrics(setupS, setupN, heap0, &qs, live, rollup)
	if tc != nil {
		if err := tc.finish(res, &qs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// gate is the correctness check every run must pass: the loss ledger
// balances exactly, every completing handshake is stored, the per-pair
// count and sum(total_ms) read back through /api/query match the
// generator's oracle, and every dashboard query succeeded.
func (r *run) gate(settled bool, qs *queryStats) error {
	st := r.p.Stats()
	stored := st.DBPoints - r.storedBase
	if !settled {
		return fmt.Errorf("gate: ledger did not settle within %v: stored %d of %d (completed %d, nic missed %d)",
			settleTimeout, stored, r.expected, st.Engine.Completed, st.Port.Imissed)
	}
	ledger := stored + st.SinkDrop + st.SinkDecodeErrors + st.DBDropped + st.DBWriteErrors
	if st.Engine.Completed != ledger {
		return fmt.Errorf("gate: ledger unbalanced: completed %d, stored %d + sink drop %d + decode err %d + db dropped %d + write err %d",
			st.Engine.Completed, stored, st.SinkDrop, st.SinkDecodeErrors, st.DBDropped, st.DBWriteErrors)
	}
	if stored != uint64(r.expected) {
		return fmt.Errorf("gate: stored %d measurements, oracle says %d (%d laps × %d)",
			stored, r.expected, r.laps, r.tr.completes())
	}
	if err := r.checkPairs(); err != nil {
		return err
	}
	if qs.failed > 0 {
		return fmt.Errorf("gate: %d of %d dashboard queries failed or returned the wrong groups", qs.failed, qs.issued)
	}
	return nil
}

// checkPairs reads back count and sum(total_ms) per (src_city, dst_city)
// over the live time range, one raw-resolution grouped query per
// destination city, and compares them with the oracle × laps.
func (r *run) checkPairs() error {
	end := base + int64(r.laps)*r.tr.span
	seen := 0
	for _, dst := range r.tr.cities {
		q := tsdb.Query{Measurement: "latency", Field: "total_ms", Start: base, End: end,
			Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggSum}, GroupBy: "src_city",
			Resolution: tsdb.ResolutionRaw, Where: []tsdb.Tag{{Key: "dst_city", Value: dst}}}
		rec := httptest.NewRecorder()
		r.srv.ServeHTTP(rec, queryRequest(q))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("gate: oracle query for dst %s: HTTP %d %s", dst, rec.Code, rec.Body.String())
		}
		var res []struct {
			Group   string
			Buckets []struct {
				Count int
				Aggs  map[string]*float64
			}
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			return fmt.Errorf("gate: oracle query for dst %s: %w", dst, err)
		}
		for _, g := range res {
			want := r.tr.truth[pair{g.Group, dst}]
			var count int
			var sum float64
			for _, b := range g.Buckets {
				count += b.Count
				if s := b.Aggs["sum"]; s != nil {
					sum += *s
				}
			}
			if count == 0 {
				continue
			}
			seen++
			wantCount, wantSum := want.count*r.laps, want.sumMs*float64(r.laps)
			if count != wantCount || math.Abs(sum-wantSum) > 1e-9*math.Max(1, math.Abs(wantSum)) {
				return fmt.Errorf("gate: pair %s→%s: stored count %d sum %.9f ms, oracle %d / %.9f ms",
					g.Group, dst, count, sum, wantCount, wantSum)
			}
		}
	}
	if seen != len(r.tr.truth) {
		return fmt.Errorf("gate: %d city pairs read back, oracle has %d", seen, len(r.tr.truth))
	}
	return nil
}

// queryProbe is the closed-loop workloads' read-back probe: once the ledger
// has settled, probeCount queries of the dashboard mix run back to back
// through the /api/query handler over the data the run stored, each timed
// from its issue.
func (r *run) queryProbe() queryStats {
	var qs queryStats
	now := base + int64(r.laps)*r.tr.span
	for i := 0; i < probeCount; i++ {
		r.timedQuery(&qs, i, r.clk.now(), now)
	}
	return qs
}

// metrics assembles the end-to-end and per-layer counter metrics.
func (r *run) metrics(setupS float64, setupN int, heap0 uint64, qs *queryStats, live, rollup *wsClient) *result {
	st := r.p.Stats()
	tr := r.tr
	offered := r.laps * tr.packets()
	interval := float64(r.wallEnd-r.t0) / 1e9
	fresh := make([]int64, r.expected)
	for k := range fresh {
		fresh[k] = r.storedAt[k] - r.due[k]
	}
	// The live client's k-th received measurement is matched with the k-th
	// completing ACK's due time.
	pushed := min(int(live.n.Load()), r.expected)
	push := make([]int64, pushed)
	for k := range push {
		push[k] = live.at[k] - r.due[k]
	}
	fd, pd, qd := windowedDist(fresh), windowedDist(push), distOf(qs.lat)
	nicLost := st.Port.Imissed + st.Port.NoMbuf + st.Port.Ierrors
	stored := st.DBPoints - r.storedBase
	failed := int(nicLost) + int(st.Engine.Completed-min(stored, st.Engine.Completed)) + qs.failed
	attempted := offered + int(st.Engine.Completed) + qs.issued
	failFrac := float64(failed) / float64(attempted)
	heapMB := (float64(r.heapPeak) - float64(heap0)) / (1 << 20)

	lapPkts, lapMeas, lapCores, lapCPU := lapRates(r.marks)
	res := &result{attempted: attempted, failed: failed}
	res.e2e = map[string]metric{
		"setup_s":        {setupS, "s", setupN},
		"ok_frac":        {1 - failFrac, "ratio", 0},
		"heap_peak_mb":   {heapMB, "MiB", 0},
		"cpu_us_per_pkt": {lapCPU, "us/pkt", 0},
	}
	// Capacity, freshness, push and query latency move with the shared
	// host's CPU steal and speed from run to run by more than any bound the
	// benchmark may set, so they are reported beside the per-layer metrics
	// (and on standard error).
	wall := map[string]metric{
		"query_p50_ms": {qd.p50, "ms", qd.n},
		"pkts_per_s":   {lapPkts, "pkt/s", 0},
		"meas_per_s":   {lapMeas, "meas/s", 0},
		"fresh_p50_ms": {fd.p50, "ms", fd.n},
		"fresh_p99_ms": {fd.p99, "ms", fd.n},
		"push_p50_ms":  {pd.p50, "ms", pd.n},
		"push_p99_ms":  {pd.p99, "ms", pd.n},
		"query_p99_ms": {qd.p99, "ms", qd.n},
		"cpu_util":     {lapCores, "cores", 0},
	}

	maxHWM := 0
	for _, q := range st.Queues {
		maxHWM = max(maxHWM, q.Watermark)
	}
	late := distOf(r.late)
	hits := float64(st.QueryCache.Hits)
	hitFrac := 0.0
	if n := hits + float64(st.QueryCache.Misses); n > 0 {
		hitFrac = hits / n
	}
	offpath := 0.0
	if st.Engine.Packets > 0 {
		offpath = float64(st.Engine.MidstreamACKs+st.Engine.OrphanSYNACKs) / float64(st.Engine.Packets)
	}
	res.layer = map[string]metric{
		"run.pkts_per_s":         {float64(r.accepted) / interval, "pkt/s", 0},
		"run.meas_per_s":         {float64(stored) / interval, "meas/s", 0},
		"run.cpu_util":           {float64(r.cpuUsed) / float64(r.wallEnd-r.t0), "cores", 0},
		"gen.pkts_offered":       {float64(offered), "pkt", 0},
		"gen.late_p99_ms":        {late.p99, "ms", late.n},
		"nic.pkts":               {float64(st.Port.Ipackets), "pkt", 0},
		"nic.missed":             {float64(nicLost), "pkt", 0},
		"nic.queue_hwm":          {float64(maxHWM), "frames", 0},
		"nic.inject_ns_per_pkt":  {float64(r.injectNs) / float64(offered), "ns/pkt", 0},
		"core.pkts":              {float64(st.Engine.Packets), "pkt", 0},
		"core.meas":              {float64(st.Engine.Completed), "meas", 0},
		"core.offpath_frac":      {offpath, "ratio", 0},
		"core.table_full":        {float64(st.Engine.TableFull), "count", 0},
		"mq.pub":                 {float64(st.BusPub), "msg", 0},
		"mq.drop":                {float64(st.BusDrop), "msg", 0},
		"analytics.out":          {float64(st.Enricher.Out), "meas", 0},
		"analytics.lookup_miss":  {float64(st.Enricher.LookupMisses), "count", 0},
		"analytics.sub_drop":     {float64(st.Enricher.SubDropped), "msg", 0},
		"ruru.sink_stored":       {float64(stored), "meas", 0},
		"ruru.sink_drop":         {float64(st.SinkDrop), "meas", 0},
		"ruru.sink_write_err":    {float64(st.DBWriteErrors), "meas", 0},
		"ruru.sink_backlog_peak": {float64(r.backlogPk), "meas", 0},
		"anomaly.events":         {float64(r.anomalyEvents() - r.eventsBase), "count", 0},
		"tsdb.dropped":           {float64(st.DBDropped), "pt", 0},
		"tsdb.series":            {float64(r.p.DB.SeriesCount()), "series", 0},
		"tsdb.wal_appends":       {float64(st.Persist.WALAppends), "records", 0},
		"tsdb.wal_fsyncs":        {float64(st.Persist.WALFsyncs), "count", 0},
		"tsdb.restore_points":    {float64(st.Persist.RestoredPoints + st.Persist.WALReplayedPoints), "pt", 0},
		"tsdb.qcache_hit_frac":   {hitFrac, "ratio", 0},
		"ws.sent":                {float64(st.HubSent), "frames", 0},
		"ws.drop":                {float64(st.HubDrop), "frames", 0},
		"ws.rollup_frames":       {float64(st.RollupFrames), "frames", 0},
		"web.query_fail":         {float64(qs.failed), "count", 0},
		"fail_frac":              {failFrac, "ratio", 0},
	}
	for _, k := range sortedKeys(wall) {
		m := wall[k]
		res.layer[k] = m
		fmt.Fprintf(os.Stderr, "e2ebench: %-14s %16.6f %s (n=%d)\n", k, m.value, m.unit, m.n)
	}
	if pn := distOf(qs.panel); pn.n > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: panel queries p50 %.3f ms p99 %.3f ms (n=%d)\n", pn.p50, pn.p99, pn.n)
	}
	msg := fmt.Sprintf("e2ebench: over loopback (not a real link) the live WebSocket client received %d measurements in %d frames",
		live.n.Load(), live.frames.Load())
	if rollup != nil {
		msg += fmt.Sprintf(", the rollup client %d frames", rollup.frames.Load())
	}
	fmt.Fprintln(os.Stderr, msg)
	return res
}
