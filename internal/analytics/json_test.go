package analytics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ruru/internal/jsonx"
	"ruru/internal/tsdb"
)

// The appenders' contract is byte identity with encoding/json, so every
// check below compares against json.Marshal of the same value. Bucket
// output is compared against refBucket, the encoding/json formulation
// Bucket.MarshalJSON had before it wrapped the appender: the reference
// must not route through the code under test.

type refBucket struct {
	Start int64                     `json:"start"`
	Count int                       `json:"count"`
	Aggs  map[tsdb.AggKind]*float64 `json:"aggs"`
}

type refSeries struct {
	Group   string      `json:"group"`
	Tier    int64       `json:"tier"`
	Buckets []refBucket `json:"buckets"`
}

func refResults(rs []tsdb.SeriesResult) []refSeries {
	if rs == nil {
		return nil
	}
	out := make([]refSeries, len(rs))
	for i, r := range rs {
		out[i] = refSeries{Group: r.Group, Tier: r.Tier}
		if r.Buckets == nil {
			continue
		}
		out[i].Buckets = make([]refBucket, len(r.Buckets))
		for j, b := range r.Buckets {
			rb := refBucket{Start: b.Start, Count: b.Count}
			if b.Aggs != nil {
				rb.Aggs = make(map[tsdb.AggKind]*float64, len(b.Aggs))
				for k, v := range b.Aggs {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						rb.Aggs[k] = nil
						continue
					}
					v := v
					rb.Aggs[k] = &v
				}
			}
			out[i].Buckets[j] = rb
		}
	}
	return out
}

var allAggKinds = []tsdb.AggKind{
	tsdb.AggMin, tsdb.AggMax, tsdb.AggMean, tsdb.AggMedian,
	tsdb.AggP95, tsdb.AggP99, tsdb.AggCount, tsdb.AggSum,
}

// stringPieces are the fragments random strings are built from: every
// class of byte the escaper treats differently.
var stringPieces = []string{
	"a", "Auckland", "Los Angeles", " ", "~", "\x7f",
	"\x00", "\x01", "\x08", "\x09", "\x0a", "\x0c", "\x0d", "\x1b", "\x1f",
	"<", ">", "&", "\"", "\\", "/", "'",
	"\xc3\xa9", "\xe6\x97\xa5\xe6\x9c\xac", "\xf0\x9f\x8c\x8f", // é, 日本, 🌏
	"\xe2\x80\xa8", "\xe2\x80\xa9", // U+2028, U+2029
	"\xe2\x80\xa7", "\xe2\x80\xaa", // their neighbours, passed through
	"\xff", "\xfe", "\x80", "\xc3", "\xe2\x80", "\xf0\x9f\x8c", // invalid, truncated
	"\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", // overlong, surrogate, > U+10FFFF
}

func randString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		sb.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return sb.String()
}

// boundaryFloats sit on or next to encoding/json's format switches.
var boundaryFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 145.123456789,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	-1e-6, math.Nextafter(-1e-6, 0), 1e-7, 1e-9, 1.5e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	-1e21, 1e20, 123456789012345678901.0, 1e22, 1e100, 1.7e308,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, math.MinInt64,
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return boundaryFloats[rng.Intn(len(boundaryFloats))]
	case 1: // any finite bit pattern, subnormals included
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2: // a decimal scale, around both cut-offs
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	default: // latitude/latency-shaped
		return math.Round((rng.Float64()-0.5)*360*1e4) / 1e4
	}
}

func randInt64(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return []int64{0, -1, 1, math.MaxInt64, math.MinInt64}[rng.Intn(5)]
	case 1:
		return int64(rng.Uint64())
	default:
		return rng.Int63n(1e9) - 5e8
	}
}

func randEndpoint(rng *rand.Rand) Endpoint {
	return Endpoint{
		CountryCode: randString(rng), Country: randString(rng), City: randString(rng),
		Lat: randFloat(rng), Lon: randFloat(rng),
		ASN: rng.Uint32(), ASName: randString(rng),
	}
}

func randEnriched(rng *rand.Rand) Enriched {
	return Enriched{
		Time: randInt64(rng), InternalNs: randInt64(rng),
		ExternalNs: randInt64(rng), TotalNs: randInt64(rng),
		IPv6: rng.Intn(2) == 0, SYNRetrans: uint8(rng.Intn(256)),
		Src: randEndpoint(rng), Dst: randEndpoint(rng),
	}
}

func randAgg(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	default:
		return randFloat(rng)
	}
}

func randResults(rng *rand.Rand) []tsdb.SeriesResult {
	n := rng.Intn(4)
	if n == 0 && rng.Intn(2) == 0 {
		return nil
	}
	rs := make([]tsdb.SeriesResult, n)
	for i := range rs {
		rs[i] = tsdb.SeriesResult{Group: randString(rng), Tier: randInt64(rng)}
		nb := rng.Intn(4)
		if nb == 0 && rng.Intn(2) == 0 {
			continue // nil Buckets
		}
		rs[i].Buckets = make([]tsdb.Bucket, nb)
		for j := range rs[i].Buckets {
			b := tsdb.Bucket{Start: randInt64(rng), Count: int(randInt64(rng))}
			switch rng.Intn(8) {
			case 0: // nil Aggs
			case 1:
				b.Aggs = map[tsdb.AggKind]float64{}
			default:
				b.Aggs = map[tsdb.AggKind]float64{}
				for _, k := range allAggKinds {
					if rng.Intn(2) == 0 {
						b.Aggs[k] = randAgg(rng)
					}
				}
				// Keys outside the known set: escaping, and more keys
				// than the appender's stack array holds.
				for extra := rng.Intn(3); extra > 0; extra-- {
					b.Aggs[tsdb.AggKind(randString(rng))] = randAgg(rng)
				}
			}
			rs[i].Buckets[j] = b
		}
	}
	return rs
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	return b
}

func requireSameJSON(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
	}
}

func TestJSONAppendMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const cases = 20000
	t.Run("string", func(t *testing.T) {
		for _, s := range stringPieces {
			requireSameJSON(t, "piece", jsonx.AppendString(nil, s), mustMarshal(t, s))
		}
		for i := 0; i < cases; i++ {
			s := randString(rng)
			requireSameJSON(t, "string", jsonx.AppendString(nil, s), mustMarshal(t, s))
		}
	})
	t.Run("float", func(t *testing.T) {
		for _, f := range boundaryFloats {
			requireSameJSON(t, "boundary", jsonx.AppendFloat(nil, f), mustMarshal(t, f))
		}
		for i := 0; i < cases; i++ {
			f := randFloat(rng)
			requireSameJSON(t, "float", jsonx.AppendFloat(nil, f), mustMarshal(t, f))
		}
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			requireSameJSON(t, "non-finite", jsonx.AppendFloat(nil, f), []byte("null"))
		}
	})
	t.Run("enriched", func(t *testing.T) {
		for i := 0; i < cases; i++ {
			e := randEnriched(rng)
			requireSameJSON(t, "enriched", AppendEnrichedJSON(nil, &e), mustMarshal(t, &e))
		}
	})
	t.Run("results", func(t *testing.T) {
		for i := 0; i < cases; i++ {
			rs := randResults(rng)
			want := mustMarshal(t, refResults(rs))
			requireSameJSON(t, "results", tsdb.AppendResultsJSON(nil, rs), want)
			// json.Marshal through Bucket.MarshalJSON: the wrapper and
			// encoding/json's re-compaction of its output change nothing.
			requireSameJSON(t, "json.Marshal", mustMarshal(t, rs), want)
		}
	})
}

// FuzzJSONAppend checks the appenders against encoding/json on
// engine-chosen strings, float bit patterns and integers.
func FuzzJSONAppend(f *testing.F) {
	for _, s := range jsonFuzzSeeds() {
		f.Add(s.s, s.bits, s.n)
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64, n int64) {
		v := math.Float64frombits(bits)
		requireSameJSON(t, "string", jsonx.AppendString(nil, s), mustMarshal(t, s))
		finite := !math.IsNaN(v) && !math.IsInf(v, 0)
		if finite {
			requireSameJSON(t, "float", jsonx.AppendFloat(nil, v), mustMarshal(t, v))
			ep := Endpoint{CountryCode: s, Country: s, City: s, Lat: v, Lon: -v, ASN: uint32(n), ASName: s}
			e := Enriched{Time: n, InternalNs: -n, ExternalNs: n / 3, TotalNs: n,
				IPv6: n&1 == 1, SYNRetrans: uint8(n), Src: ep, Dst: ep}
			requireSameJSON(t, "enriched", AppendEnrichedJSON(nil, &e), mustMarshal(t, &e))
		} else {
			requireSameJSON(t, "non-finite", jsonx.AppendFloat(nil, v), []byte("null"))
		}
		rs := []tsdb.SeriesResult{{Group: s, Tier: n, Buckets: []tsdb.Bucket{
			{Start: n, Count: int(n), Aggs: map[tsdb.AggKind]float64{
				tsdb.AggMean: v, tsdb.AggKind(s): -v, tsdb.AggCount: float64(n),
			}},
			{Start: -n},
		}}}
		requireSameJSON(t, "results", tsdb.AppendResultsJSON(nil, rs), mustMarshal(t, refResults(rs)))
	})
}

type jsonFuzzSeed struct {
	name string
	s    string
	bits uint64
	n    int64
}

// jsonFuzzSeeds is the checked-in corpus: each escaping class, both
// float-format cut-offs, the exponent fix-up, and an aggregate key that
// sorts before the known kinds.
func jsonFuzzSeeds() []jsonFuzzSeed {
	return []jsonFuzzSeed{
		{"plain", "Auckland", 0, 0},
		{"html", "<a href=\"x\">&amp;</a>\\", math.Float64bits(1e-6), -1},
		{"control-invalid-separators", "\x00\x1f\x7f\xff\xc3\xe2\x80\xa8\xe2\x80\xa9", math.Float64bits(1e21), math.MinInt64},
		{"surrogate-overlong", "\xed\xa0\x80\xf4\x90\x80\x80\xc0\xaf", math.Float64bits(math.SmallestNonzeroFloat64), math.MaxInt64},
		{"exponent-fixup", "\b\f\n\r\t", math.Float64bits(1e-7), 7},
		{"below-1e21", "\xf0\x9f\x8c", math.Float64bits(math.Nextafter(1e21, 0)), 1 << 62},
		{"negative-zero", "\x01count", math.Float64bits(math.Copysign(0, -1)), 3},
		{"nan", "p95", math.Float64bits(math.NaN()), 1e9},
	}
}

// TestWriteJSONAppendCorpus regenerates testdata/fuzz/FuzzJSONAppend.
// Run with RURU_UPDATE=1; skipped otherwise.
func TestWriteJSONAppendCorpus(t *testing.T) {
	if os.Getenv("RURU_UPDATE") == "" {
		t.Skip("set RURU_UPDATE=1 to regenerate the fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJSONAppend")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range jsonFuzzSeeds() {
		body := "go test fuzz v1\nstring(" + strconv.Quote(s.s) + ")\nuint64(" +
			strconv.FormatUint(s.bits, 10) + ")\nint64(" + strconv.FormatInt(s.n, 10) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendEnrichedJSONNoAlloc pins the live-frame encode: one
// 64-measurement frame into warm scratch allocates nothing.
func TestAppendEnrichedJSONNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rng := rand.New(rand.NewSource(2))
	frame := make([]Enriched, 64)
	for i := range frame {
		frame[i] = randEnriched(rng)
	}
	var buf []byte
	encode := func() {
		buf = append(buf[:0], '[')
		for i := range frame {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = AppendEnrichedJSON(buf, &frame[i])
		}
		buf = append(buf, ']')
	}
	encode()
	requireSameJSON(t, "frame", buf, mustMarshal(t, frame))
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("64-measurement frame into warm scratch: %.1f allocs, want 0", allocs)
	}
}
