package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// clock is the run's monotonic time base: every timestamp the benchmark
// records is nanoseconds since the clock was started.
type clock struct{ start time.Time }

func newClock() clock { return clock{start: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.start)) }

// dist summarises a sample of durations (ns) as p50/p99 plus its count.
type dist struct {
	n        int
	p50, p99 float64 // ms
}

// distOf sorts xs in place and takes nearest-rank percentiles. A p99 from
// fewer than 1000 samples has fewer than ten samples beyond it; callers
// print the count beside every percentile so that shows.
func distOf(xs []int64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	slices.Sort(xs)
	return dist{n: len(xs), p50: rank(xs, 0.50), p99: rank(xs, 0.99)}
}

// windowedDist splits samples, in due-time order, into consecutive windows
// of at least 1000 (so every window's p99 has ten samples beyond it) and
// returns the median, across windows, of each window's p50, and the lower
// quartile, across windows, of each window's p99. Freshness and push
// latencies are correlated in time: one stall — a GC, or the shared host
// descheduling a vCPU — delays every measurement behind it, so a whole-run
// p99 is set by a handful of stalls and by how much CPU the host stole
// during that run. The lower quartile of the window p99s is the tail of a
// quiet window: it still moves when the program's own tail does, because
// every window carries it. With fewer than 2000 samples this is the
// whole-run distribution.
func windowedDist(lat []int64) dist {
	n := len(lat)
	if n < 2000 {
		return distOf(slices.Clone(lat))
	}
	w := n / 1000
	var p50s, p99s []float64
	for k := 0; k < w; k++ {
		d := distOf(slices.Clone(lat[k*n/w : (k+1)*n/w]))
		p50s, p99s = append(p50s, d.p50), append(p99s, d.p99)
	}
	return dist{n: n, p50: median(p50s), p99: lowerQuartile(p99s)}
}

// lowerQuartile is the nearest-rank 25th percentile.
func lowerQuartile(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(0, int(math.Ceil(0.25*float64(len(s))))-1)]
}

// lapMark is the run's state when a lap ends.
type lapMark struct {
	t, cpu           int64 // clock and process CPU time, ns
	accepted, stored int64
}

// lapRates returns the median, over laps after the first, of each lap's
// packets/s, measurements/s, CPU cores and CPU µs per packet. marks[0] is
// the start and marks[i] the end of lap i-1. One lap's rate is its own work
// over its own duration, so a burst of host CPU steal moves one lap, not
// the figure. With fewer than three laps after the first it is the whole
// run.
func lapRates(marks []lapMark) (pkts, meas, cores, usPerPkt float64) {
	var ps, ms, cs, us []float64
	add := func(a, b lapMark) {
		dt := float64(b.t - a.t)
		ps = append(ps, float64(b.accepted-a.accepted)/dt*1e9)
		ms = append(ms, float64(b.stored-a.stored)/dt*1e9)
		cs = append(cs, float64(b.cpu-a.cpu)/dt)
		us = append(us, float64(b.cpu-a.cpu)/float64(b.accepted-a.accepted)/1e3)
	}
	if laps := len(marks) - 1; laps < 4 {
		add(marks[0], marks[laps])
	} else {
		for i := 2; i <= laps; i++ {
			add(marks[i-1], marks[i])
		}
	}
	return median(ps), median(ms), median(cs), median(us)
}

func rank(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap reads the heap bytes marked live by the most recent GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapBaseline collects garbage and returns the live heap, the zero point
// heap_peak_mb is measured from (it already holds the trace and the
// pipeline's fixed allocations).
func heapBaseline() uint64 {
	runtime.GC()
	return liveHeap()
}
