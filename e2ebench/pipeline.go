package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/anomaly"
	"ruru/internal/geo"
	"ruru/internal/hashx"
	"ruru/internal/nic"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
	"ruru/internal/web"
)

const (
	// base is the virtual tap time of lap 0's first packet (a multiple of
	// every rollup width, so dashboard windows align with it).
	base = int64(1e15)
	// burst is the InjectBurst size, the daemon's -burst default.
	burst = 64
	// inflightWindow bounds completed-but-unstored measurements in the
	// closed loop. It sits below the smallest bus high-water mark (the
	// 32768-message enricher and sink subscriptions), so a closed-loop run
	// never sheds at the bus.
	inflightWindow = 8192
	// ringWindow is the closed loop's bound on frames waiting in one RX
	// ring: a quarter of the 4096-slot ring.
	ringWindow = 1024
	// setupReps is how many times a run sets the pipeline up; setup_s is
	// the median. A restoring setup (dashboard) repeats restoreReps times.
	setupReps   = 21
	restoreReps = 5
	// settleTimeout bounds the wait for the ledger to settle after the
	// last frame.
	settleTimeout = 60 * time.Second
	// pollEvery is the stored-count polling period: freshness resolution.
	pollEvery = 250 * time.Microsecond
)

// pipelineConfig is the pipeline under test, fixed in the workload
// definition: two queues, enrich and sink workers for the 2-CPU reference
// machine, and the daemon's defaults for everything else (DefaultRollups,
// a 16 MiB query cache, 8 DB stripes). The dashboard's pipeline (dataDir
// set) is the daemon's own: Drop policy, durable TSDB with WAL fsync
// interval; the closed loops run the lossless Block policy in memory.
func pipelineConfig(world *geo.World, dataDir string) ruru.Config {
	cfg := ruru.Config{
		GeoDB:           world.DB(),
		Queues:          2,
		EnrichWorkers:   2,
		SinkWorkers:     2,
		Burst:           burst,
		Overflow:        nic.Block,
		Rollups:         tsdb.DefaultRollups(),
		QueryCacheBytes: 16 << 20,
		DBStripes:       8,
	}
	if dataDir != "" {
		cfg.Overflow = nic.Drop
		cfg.Persist = tsdb.PersistOptions{Dir: dataDir, Fsync: tsdb.FsyncInterval, CheckpointEvery: time.Minute}
	}
	return cfg
}

// run is the state of one benchmark invocation.
type run struct {
	wl    *workload
	opts  options
	world *geo.World
	tr    *trace
	laps  int
	clk   clock
	t0    int64 // clock reading when the first lap starts

	drillPairs []pair // drill-down rotation: every city pair with traffic

	p      *ruru.Pipeline
	srv    *web.Server
	cancel context.CancelFunc
	ran    chan struct{} // closed when Pipeline.Run returns
	dirs   []string      // scratch directories to remove

	storedBase uint64 // DB points present before traffic (history, warm-up)
	eventsBase int    // anomaly events raised during the warm-up
	expected   int    // completing handshakes over all laps

	// Per ACK ordinal k (lap*completes + index): when the ACK was due
	// (open loop) or handed to InjectBurst (closed loop).
	due []int64
	// storedAt[k]: when the stored count first exceeded k.
	storedAt []int64
	stored   atomic.Int64 // entries of storedAt filled

	accepted  int
	injectNs  int64
	late      []int64 // open loop: per-packet send time minus due time
	heapPeak  uint64
	backlogPk int64 // peak sink backlog (enriched published − settled)

	wallEnd, cpuUsed int64
	marks            []lapMark // run start, then the end of every lap
}

// storedCount is the number of live measurements in the DB.
func (r *run) storedCount() int64 {
	w, _ := r.p.DB.WriteStats()
	return int64(w - r.storedBase)
}

// setup builds the pipeline setupReps times and keeps the last one. Each
// repetition times ruru.New plus the Run start; on a persistent workload
// New restores a fresh copy of the history (checkpoint + WAL tail).
func (r *run) setup(histDir string) (setupS float64, reps int, err error) {
	var times []float64
	reps = setupReps
	if histDir != "" {
		reps = restoreReps
	}
	for i := 0; i < reps; i++ {
		dataDir := ""
		if histDir != "" {
			dataDir = filepath.Join(r.opts.workdir, fmt.Sprintf("db-%d-%d", os.Getpid(), i))
			r.dirs = append(r.dirs, dataDir)
			if err := copyDir(histDir, dataDir); err != nil {
				return 0, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		p, err := ruru.New(pipelineConfig(r.world, dataDir))
		if err != nil {
			return 0, 0, fmt.Errorf("ruru.New: %w", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ran := make(chan struct{})
		go func() {
			defer close(ran)
			_ = p.Run(ctx) // returns ctx.Err() once cancelled
		}()
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			cancel()
			<-ran
			if err := p.Close(); err != nil {
				return 0, 0, fmt.Errorf("close setup pipeline: %w", err)
			}
			if dataDir != "" {
				if err := os.RemoveAll(dataDir); err != nil {
					return 0, 0, err
				}
			}
			continue
		}
		r.p, r.cancel, r.ran = p, cancel, ran
	}
	r.srv = web.NewServer(r.p)
	return median(times), reps, nil
}

// spikeWindow is the anomaly package's default spike-detector window.
const spikeWindow = 512

// warmUp brings the anomaly detectors to the steady state of a
// long-running daemon before any clock starts: it offers passes of the
// lap's own measurements to Pipeline.Spikes and Pipeline.Surge —
// timestamped as the laps just before the first timed one, so detector
// rates match live traffic — until every city pair's spike-detector window
// is full. Without it a run measures the windows filling, and throughput
// falls as the run goes on. Two goroutines split the pairs, so each
// detector key still sees its measurements in order.
func (r *run) warmUp() {
	start := time.Now()
	n := warmDetectors(r.tr, r.p.Spikes, r.p.Surge)
	fmt.Fprintf(os.Stderr, "e2ebench: warm-up offered %d measurements in %.2fs\n", n, time.Since(start).Seconds())
	w, _ := r.p.DB.WriteStats()
	r.storedBase = w
	r.eventsBase = r.anomalyEvents()
}

// warmDetectors is warmUp's body, shared with the traced run's replay: it
// returns how many measurements it offered.
func warmDetectors(tr *trace, spikes *anomaly.SpikeBank, surge *anomaly.SurgeDetector) int {
	passes := (spikeWindow*len(tr.truth) + tr.completes() - 1) / tr.completes()
	var wg sync.WaitGroup
	for part := uint32(0); part < 2; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < passes; w++ {
				shift := base - int64(passes-w)*tr.span
				for i := range tr.meas {
					e := &tr.meas[i]
					key := pairKey(e)
					if hashx.FNV1a32(key)%2 != part {
						continue
					}
					spikes.Offer(key, e.Time+shift, e.TotalNs)
					surge.Observe(key, e.Time+shift)
				}
			}
		}()
	}
	wg.Wait()
	return passes * tr.completes()
}

// pairKey is the sink's detector key for a measurement.
func pairKey(e *analytics.Enriched) string { return e.Src.City + "→" + e.Dst.City }

// anomalyEvents counts the detectors' events so far.
func (r *run) anomalyEvents() int {
	return len(r.p.SpikeEvents()) + len(r.p.Surge.Events()) + len(r.p.FloodEvents())
}

// shutdown stops the pipeline and removes scratch directories.
func (r *run) shutdown() error {
	var err error
	if r.p != nil {
		r.p.Port.Stop()
		r.cancel()
		<-r.ran
		err = r.p.Close()
	}
	for _, d := range r.dirs {
		err = errors.Join(err, os.RemoveAll(d))
	}
	return err
}

// monitor polls the stored count (stamping storedAt), the live heap and the
// sink backlog until stop is closed. It returns when it has exited.
func (r *run) monitor(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	last := r.stored.Load()
	for tick := 0; ; tick++ {
		n := min(r.storedCount(), int64(len(r.storedAt)))
		if n > last {
			t := r.clk.now()
			for ; last < n; last++ {
				r.storedAt[last] = t
			}
			r.stored.Store(last)
		}
		if tick%40 == 0 {
			if h := liveHeap(); h > r.heapPeak {
				r.heapPeak = h
			}
			st := r.p.Enricher.Stats()
			settled := r.storedCount() + int64(r.p.Stats().SinkDrop)
			if b := int64(st.Out) - settled; b > r.backlogPk {
				r.backlogPk = b
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		time.Sleep(pollEvery)
	}
}

// injectClosed replays one lap as fast as the pipeline accepts it: Block
// policy, and each burst waits while completed-but-unstored measurements
// would exceed inflightWindow or an RX ring is busy. *k is the running ACK
// ordinal.
func (r *run) injectClosed(lap int, k *int, frames []nic.Frame) []nic.Frame {
	tr := r.tr
	shift := base + int64(lap)*tr.span
	ai := 0
	for i := 0; i < tr.packets(); i += burst {
		j := min(i+burst, tr.packets())
		na := 0
		for ai+na < len(tr.acks) && int(tr.acks[ai+na]) < j {
			na++
		}
		for int64(*k+na)-r.storedCount() > inflightWindow || r.ringsBusy() {
			time.Sleep(50 * time.Microsecond)
		}
		frames = tr.fill(frames, i, j, shift)
		t := r.clk.now()
		r.accepted += r.p.Port.InjectBurst(frames)
		r.injectNs += r.clk.now() - t
		for ; na > 0; na-- {
			r.due[*k] = t
			*k++
			ai++
		}
	}
	return frames
}

// ringsBusy reports whether any RX ring holds more than ringWindow frames.
// The closed loop waits for it to drain, so freshness measures the
// pipeline rather than how long frames sit in a full ring.
func (r *run) ringsBusy() bool {
	for q := 0; q < r.p.Port.NumQueues(); q++ {
		if r.p.Port.QueueLen(q) > ringWindow {
			return true
		}
	}
	return false
}

// injectOpen replays one lap at its own virtual timing: the lap's relative
// time 0 is due at wall time t0, each frame at t0 + its timestamp. Frames
// already due go out together (up to 256 per burst); lateness is recorded
// per frame, and freshness is measured from each ACK's due time.
func (r *run) injectOpen(lap int, t0 int64, k *int, frames []nic.Frame) []nic.Frame {
	tr := r.tr
	shift := base + int64(lap)*tr.span
	ai := 0
	for i := 0; i < tr.packets(); {
		now := r.clk.now()
		if next := t0 + tr.ts[i]; next > now {
			time.Sleep(time.Duration(next - now))
			continue
		}
		j := i
		for j < tr.packets() && j-i < 256 && t0+tr.ts[j] <= now {
			j++
		}
		frames = tr.fill(frames, i, j, shift)
		t := r.clk.now()
		r.accepted += r.p.Port.InjectBurst(frames)
		r.injectNs += r.clk.now() - t
		for q := i; q < j; q++ {
			r.late = append(r.late, t-(t0+tr.ts[q]))
		}
		for ai < len(tr.acks) && int(tr.acks[ai]) < j {
			r.due[*k] = t0 + tr.ackTs[ai]
			*k++
			ai++
		}
		i = j
	}
	return frames
}

// waitStored blocks until n measurements are stored (as seen by the
// monitor) or the timeout passes.
func (r *run) waitStored(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for r.stored.Load() < int64(n) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
