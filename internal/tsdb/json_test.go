package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// panelResults is the shape of a dashboard panel answer: 8 groups × 360
// buckets (1 h at 10 s) of count/mean/p95, with an empty bucket's NaN
// aggregates every so often.
func panelResults() []SeriesResult {
	rs := make([]SeriesResult, 8)
	for i := range rs {
		rs[i] = SeriesResult{Group: []string{"Auckland", "Wellington", "Sydney", "Tokyo",
			"Los Angeles", "London", "Frankfurt", "São Paulo"}[i], Tier: 10e9}
		rs[i].Buckets = make([]Bucket, 360)
		for j := range rs[i].Buckets {
			b := Bucket{Start: int64(j) * 10e9, Count: 30 + j%7}
			b.Aggs = map[AggKind]float64{
				AggCount: float64(b.Count), AggMean: 145.25 + float64(j)/7, AggP95: 210.5,
			}
			if j%50 == 0 {
				b.Count = 0
				b.Aggs = map[AggKind]float64{AggCount: 0, AggMean: math.NaN(), AggP95: math.NaN()}
			}
			rs[i].Buckets[j] = b
		}
	}
	return rs
}

// TestAppendResultsJSONNoAlloc pins the /api/query encode: a panel-shaped
// result into warm scratch allocates nothing, and matches what
// json.Marshal produces through Bucket.MarshalJSON.
func TestAppendResultsJSONNoAlloc(t *testing.T) {
	rs := panelResults()
	buf := AppendResultsJSON(nil, rs)
	want, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("AppendResultsJSON differs from json.Marshal:\n got %.200s\nwant %.200s", buf, want)
	}
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	allocs := testing.AllocsPerRun(20, func() { buf = AppendResultsJSON(buf[:0], rs) })
	if allocs != 0 {
		t.Fatalf("panel-shaped result into warm scratch: %.1f allocs, want 0", allocs)
	}
}

func TestAppendResultsJSONNulls(t *testing.T) {
	for _, c := range []struct {
		rs   []SeriesResult
		want string
	}{
		{nil, `null`},
		{[]SeriesResult{}, `[]`},
		{[]SeriesResult{{Group: "a<b"}}, `[{"group":"a\u003cb","tier":0,"buckets":null}]`},
		{[]SeriesResult{{Buckets: []Bucket{{Start: 1}, {Aggs: map[AggKind]float64{}}}}},
			`[{"group":"","tier":0,"buckets":[{"start":1,"count":0,"aggs":null},{"start":0,"count":0,"aggs":{}}]}]`},
		{[]SeriesResult{{Buckets: []Bucket{{Aggs: map[AggKind]float64{
			AggSum: math.Inf(1), AggMin: math.Inf(-1), AggMax: 1e21, AggCount: 1e-7,
		}}}}},
			`[{"group":"","tier":0,"buckets":[{"start":0,"count":0,"aggs":{"count":1e-7,"max":1e+21,"min":null,"sum":null}}]}]`},
	} {
		if got := AppendResultsJSON(nil, c.rs); string(got) != c.want {
			t.Errorf("AppendResultsJSON(%+v) = %s, want %s", c.rs, got, c.want)
		}
	}
}
