package analytics

import (
	"bytes"
	"testing"
)

func sampleEnriched(i int) Enriched {
	cities := []string{"Auckland", "Wellington", "", "São Paulo"}
	return Enriched{
		Time:       int64(i) * 1e9,
		InternalNs: int64(100+i) * 1e6,
		ExternalNs: int64(200+i) * 1e6,
		TotalNs:    int64(300+i) * 1e6,
		Src:        Endpoint{City: cities[i%len(cities)], CountryCode: "NZ", ASN: uint32(i * 7)},
		Dst:        Endpoint{City: cities[(i+1)%len(cities)], CountryCode: "US", ASN: uint32(i * 13)},
	}
}

// TestLatencyRefHelpersMatchLatencyPoint pins the zero-alloc sink helpers
// against the canonical LatencyPoint: zipping LatencyFieldKeys with
// AppendLatencyVals must reproduce LatencyPoint's Fields exactly, so the
// sink's WriteBatchRef stores bit-identical data to WriteBatch of
// LatencyPoint.
func TestLatencyRefHelpersMatchLatencyPoint(t *testing.T) {
	for i := 0; i < 8; i++ {
		e := sampleEnriched(i)
		pt := LatencyPoint(&e)
		keys := LatencyFieldKeys()
		vals := AppendLatencyVals(nil, &e)
		if len(keys) != len(vals) || len(keys) != len(pt.Fields) {
			t.Fatalf("length mismatch: keys %d vals %d fields %d", len(keys), len(vals), len(pt.Fields))
		}
		for j := range keys {
			if pt.Fields[j].Key != keys[j] {
				t.Fatalf("field %d key: LatencyPoint %q, LatencyFieldKeys %q", j, pt.Fields[j].Key, keys[j])
			}
			if pt.Fields[j].Value != vals[j] {
				t.Fatalf("field %q value: LatencyPoint %v, AppendLatencyVals %v", keys[j], pt.Fields[j].Value, vals[j])
			}
		}
	}
}

// TestAppendLatencyKeyInjective pins that AppendLatencyKey distinguishes
// every tag-identity component of LatencyPoint — equal keys iff equal tag
// sets — including ambiguous-concatenation shapes ("ab"+"c" vs "a"+"bc").
func TestAppendLatencyKeyInjective(t *testing.T) {
	base := sampleEnriched(1)
	variants := []Enriched{base}
	mut := func(f func(*Enriched)) {
		e := base
		f(&e)
		variants = append(variants, e)
	}
	mut(func(e *Enriched) { e.Src.City = "X" })
	mut(func(e *Enriched) { e.Src.CountryCode = "AU" })
	mut(func(e *Enriched) { e.Src.ASN++ })
	mut(func(e *Enriched) { e.Dst.City = "X" })
	mut(func(e *Enriched) { e.Dst.CountryCode = "AU" })
	mut(func(e *Enriched) { e.Dst.ASN++ })
	mut(func(e *Enriched) { e.Src.City, e.Src.CountryCode = e.Src.City+"N", "Z" })
	// Non-identity components must NOT change the key.
	same := base
	same.Time += 5
	same.TotalNs += 5
	same.Src.Country = "different"
	same.Src.Lat = 1.25

	keys := make([][]byte, len(variants))
	for i := range variants {
		keys[i] = AppendLatencyKey(nil, &variants[i])
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if bytes.Equal(keys[i], keys[j]) {
				t.Fatalf("variants %d and %d collide: %q", i, j, keys[i])
			}
		}
	}
	if !bytes.Equal(AppendLatencyKey(nil, &same), keys[0]) {
		t.Fatalf("key depends on non-identity fields")
	}
}
