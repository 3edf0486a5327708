package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// sortRollingMedian is the reference: the sort-based window RollingMedian
// replaced. Median and MAD copy the window and sort it on every call.
type sortRollingMedian struct {
	window  []float64
	scratch []float64
	next    int
	filled  bool
}

func newSortRollingMedian(n int) *sortRollingMedian {
	if n < 1 {
		n = 1
	}
	return &sortRollingMedian{window: make([]float64, n), scratch: make([]float64, n)}
}

func (r *sortRollingMedian) Add(x float64) {
	r.window[r.next] = x
	r.next++
	if r.next == len(r.window) {
		r.next = 0
		r.filled = true
	}
}

func (r *sortRollingMedian) Len() int {
	if r.filled {
		return len(r.window)
	}
	return r.next
}

func (r *sortRollingMedian) values() []float64 {
	n := r.Len()
	copy(r.scratch[:n], r.window[:n])
	return r.scratch[:n]
}

func (r *sortRollingMedian) Median() float64 {
	vs := r.values()
	if len(vs) == 0 {
		return 0
	}
	return sortedMedianOf(vs)
}

func (r *sortRollingMedian) MAD() float64 {
	vs := r.values()
	if len(vs) == 0 {
		return 0
	}
	m := sortedMedianOf(vs)
	for i, v := range vs {
		vs[i] = math.Abs(v - m)
	}
	return sortedMedianOf(vs)
}

func sortedMedianOf(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// checkAgainstReference adds every sample to both windows and compares
// Len, median and MAD bit for bit after each Add; ctx prefixes failures.
func checkAgainstReference(t *testing.T, ctx string, window int, samples []float64) {
	t.Helper()
	got, want := NewRollingMedian(window), newSortRollingMedian(window)
	for k, x := range samples {
		got.Add(x)
		want.Add(x)
		med, mad := got.MedianMAD()
		wmed, wmad := want.Median(), want.MAD()
		if got.Len() != want.Len() ||
			math.Float64bits(med) != math.Float64bits(wmed) ||
			math.Float64bits(mad) != math.Float64bits(wmad) {
			t.Fatalf("%s window %d, after add #%d (%v): len/median/MAD = %d/%v/%v, want %d/%v/%v",
				ctx, window, k, x, got.Len(), med, mad, want.Len(), wmed, wmad)
		}
	}
}

// rollingDists generate nanosecond latency streams (the detector adds
// float64(ns)) in the shapes that stress an order-maintained window.
var rollingDists = []struct {
	name string
	gen  func(rng *rand.Rand) int64
}{
	{"normal", func(rng *rand.Rand) int64 { return int64(150e6 + rng.NormFloat64()*10e6) }},
	{"heavy-tail", func(rng *rand.Rand) int64 {
		// Pareto(α=1.2) over a 20 ms floor: RTTs with multi-second tails.
		return int64(min(20e6/math.Pow(1-rng.Float64(), 1/1.2), 1e18))
	}},
	{"duplicates", func(rng *rand.Rand) int64 { return int64(rng.Intn(6)) }},
	{"int64-range", func(rng *rand.Rand) int64 { return int64(rng.Uint64()) }},
}

func TestRollingMedianMatchesSortReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 100, 127, 128}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := sizes[int(seed)%len(sizes)]
		switch {
		case seed%8 == 0:
			window = 512
		case seed%8 == 4:
			window = 1 + rng.Intn(600)
		}
		dist := rollingDists[int(seed/2)%len(rollingDists)]
		// Partial windows, the first fill and several full turns of the
		// ring, stopping at an arbitrary phase.
		samples := make([]float64, 2*window+rng.Intn(window+8))
		for i := range samples {
			samples[i] = float64(dist.gen(rng))
		}
		checkAgainstReference(t, "seed "+strconv.FormatInt(seed, 10)+" "+dist.name, window, samples)
	}
}

// FuzzRollingMedian compares the order-maintained window against the
// sort-based reference on an arbitrary int64 sample stream: the window
// size comes from the first argument, the samples from 8-byte little-endian
// chunks of the second.
func FuzzRollingMedian(f *testing.F) {
	for _, s := range rollingFuzzSeeds() {
		f.Add(s.window, s.data)
	}
	f.Fuzz(func(t *testing.T, window uint16, data []byte) {
		samples := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			samples = append(samples, float64(int64(binary.LittleEndian.Uint64(data))))
		}
		checkAgainstReference(t, "fuzz", int(window%600)+1, samples)
	})
}

type rollingFuzzSeed struct {
	name   string
	window uint16
	data   []byte
}

// rollingFuzzSeeds is the checked-in corpus: small and even/odd windows
// over each distribution, plus extremes of the int64 range.
func rollingFuzzSeeds() []rollingFuzzSeed {
	encode := func(vs []int64) []byte {
		out := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
		}
		return out
	}
	seeds := []rollingFuzzSeed{{
		name: "extremes", window: 3,
		data: encode([]int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MaxInt64, math.MinInt64, 0}),
	}}
	for d, dist := range rollingDists {
		for _, window := range []uint16{1, 2, 9, 32} {
			rng := rand.New(rand.NewSource(int64(d)*100 + int64(window)))
			vs := make([]int64, 3*int(window)+5)
			for i := range vs {
				vs[i] = dist.gen(rng)
			}
			seeds = append(seeds, rollingFuzzSeed{
				name: dist.name + "-w" + strconv.Itoa(int(window)), window: window - 1, data: encode(vs),
			})
		}
	}
	return seeds
}

// TestWriteRollingMedianCorpus regenerates testdata/fuzz/FuzzRollingMedian.
// Run with RURU_UPDATE=1; skipped otherwise.
func TestWriteRollingMedianCorpus(t *testing.T) {
	if os.Getenv("RURU_UPDATE") == "" {
		t.Skip("set RURU_UPDATE=1 to regenerate the fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRollingMedian")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range rollingFuzzSeeds() {
		body := "go test fuzz v1\nuint16(" + strconv.Itoa(int(s.window)) + ")\n[]byte(" + strconv.Quote(string(s.data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
