package analytics

import (
	"strconv"

	"ruru/internal/jsonx"
)

// AppendEnrichedJSON appends e to dst as json.Marshal encodes it — one
// element of a /ws live frame — byte for byte, without reflection and,
// once dst has capacity, without allocating. A non-finite Lat or Lon,
// which json.Marshal refuses, is written as null.
//
//ruru:noalloc
func AppendEnrichedJSON(dst []byte, e *Enriched) []byte {
	dst = append(dst, `{"time":`...)
	dst = strconv.AppendInt(dst, e.Time, 10)
	dst = append(dst, `,"internal_ns":`...)
	dst = strconv.AppendInt(dst, e.InternalNs, 10)
	dst = append(dst, `,"external_ns":`...)
	dst = strconv.AppendInt(dst, e.ExternalNs, 10)
	dst = append(dst, `,"total_ns":`...)
	dst = strconv.AppendInt(dst, e.TotalNs, 10)
	dst = append(dst, `,"ipv6":`...)
	dst = strconv.AppendBool(dst, e.IPv6)
	dst = append(dst, `,"syn_retrans":`...)
	dst = strconv.AppendUint(dst, uint64(e.SYNRetrans), 10)
	dst = append(dst, `,"src":`...)
	dst = appendEndpointJSON(dst, &e.Src)
	dst = append(dst, `,"dst":`...)
	dst = appendEndpointJSON(dst, &e.Dst)
	return append(dst, '}')
}

//ruru:noalloc
func appendEndpointJSON(dst []byte, ep *Endpoint) []byte {
	dst = append(dst, `{"cc":`...)
	dst = jsonx.AppendString(dst, ep.CountryCode)
	dst = append(dst, `,"country":`...)
	dst = jsonx.AppendString(dst, ep.Country)
	dst = append(dst, `,"city":`...)
	dst = jsonx.AppendString(dst, ep.City)
	dst = append(dst, `,"lat":`...)
	dst = jsonx.AppendFloat(dst, ep.Lat)
	dst = append(dst, `,"lon":`...)
	dst = jsonx.AppendFloat(dst, ep.Lon)
	dst = append(dst, `,"asn":`...)
	dst = strconv.AppendUint(dst, uint64(ep.ASN), 10)
	dst = append(dst, `,"as_name":`...)
	dst = jsonx.AppendString(dst, ep.ASName)
	return append(dst, '}')
}
