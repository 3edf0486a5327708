// Package jsonx holds the two scalar encoders Ruru's hand-written JSON
// appenders are built from. Each reproduces encoding/json's output for its
// type byte for byte, so a response assembled from them is identical to
// json.Marshal's (the differential test in internal/analytics pins this),
// while appending into caller-owned scratch instead of reflecting over the
// value and allocating per call.
package jsonx

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string literal, escaped exactly as
// json.Marshal escapes it: '"' and '\\' backslash-escaped; \b, \f, \n, \r
// and \t by name; every other control byte and the HTML-significant '<',
// '>' and '&' as \u00XX; each byte of invalid UTF-8 as \ufffd; and U+2028
// and U+2029 as \u2028 and \u2029.
//
//ruru:noalloc
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as json.Marshal formats a float64: the shortest
// representation that round-trips, in fixed notation unless |f| is below
// 1e-6 or at least 1e21 (the ES6 number-to-string cut-offs), with a
// single-digit negative exponent left unpadded ("1e-7", not "1e-07").
// NaN and ±Inf, which json.Marshal refuses, are written as null.
//
//ruru:noalloc
func AppendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	fmt := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	dst = strconv.AppendFloat(dst, f, fmt, -1, 64)
	if fmt == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
