package tsdb

import (
	"slices"
	"strconv"
	"strings"

	"ruru/internal/jsonx"
)

// AppendResultsJSON appends rs to dst as json.Marshal encodes it (the
// /api/query response body), byte for byte: fields in declaration order,
// each bucket's aggregates in sorted key order, non-finite aggregates as
// null, and null for a nil result slice, a nil Buckets slice or a nil
// Aggs map. Steady state appends into warm scratch without allocating.
//
//ruru:noalloc
func AppendResultsJSON(dst []byte, rs []SeriesResult) []byte {
	if rs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range rs {
		r := &rs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"group":`...)
		dst = jsonx.AppendString(dst, r.Group)
		dst = append(dst, `,"tier":`...)
		dst = strconv.AppendInt(dst, r.Tier, 10)
		dst = append(dst, `,"buckets":`...)
		if r.Buckets == nil {
			dst = append(dst, "null}"...)
			continue
		}
		dst = append(dst, '[')
		for j := range r.Buckets {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendBucketJSON(dst, &r.Buckets[j])
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, ']')
}

// aggKV is one bucket aggregate, gathered for key-ordered output.
type aggKV struct {
	k AggKind
	v float64
}

// appendBucketJSON appends one bucket as Bucket.MarshalJSON defines it.
//
//ruru:noalloc
func appendBucketJSON(dst []byte, b *Bucket) []byte {
	dst = append(dst, `{"start":`...)
	dst = strconv.AppendInt(dst, b.Start, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(b.Count), 10)
	dst = append(dst, `,"aggs":`...)
	if b.Aggs == nil {
		return append(dst, "null}"...)
	}
	// encoding/json writes map keys in sorted order. A bucket holds at
	// most one entry per AggKind, so the keys sort in a stack array.
	var arr [8]aggKV
	kvs := arr[:0]
	for k, v := range b.Aggs {
		kvs = append(kvs, aggKV{k, v})
	}
	slices.SortFunc(kvs, func(a, b aggKV) int { return strings.Compare(string(a.k), string(b.k)) })
	dst = append(dst, '{')
	for i := range kvs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendString(dst, string(kvs[i].k))
		dst = append(dst, ':')
		dst = jsonx.AppendFloat(dst, kvs[i].v)
	}
	return append(dst, "}}"...)
}
