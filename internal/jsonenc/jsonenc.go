// Package jsonenc holds the append-style JSON primitives (string, float,
// time) GET /report is rendered with, so internal/aggregate and
// internal/detect can encode their accumulators straight into the
// response body — under the lock that guards them — without reflection,
// intermediate maps or a per-request snapshot; and the Render and Span
// with which they copy from the previous body what nothing changed.
//
// The contract of every function here is byte equality with
// encoding/json (Marshal and Encoder defaults: HTML-safe escaping on);
// FuzzReportJSON in internal/report holds them to it.
package jsonenc

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as encoding/json
// does: `"` and `\` escaped, \b \f \n \r \t by name, other control
// bytes and the HTML-sensitive < > & as \u00XX, invalid UTF-8 as the six
// characters \ufffd, and U+2028 / U+2029 escaped.
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
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f by encoding/json's float64 rule: strconv's
// shortest 'f' form, unless |f| < 1e-6 or ≥ 1e21, then 'e' with a
// two-digit negative exponent's leading zero dropped (e-09 → e-9).
// f must be finite — encoding/json refuses NaN and ±Inf, and nothing the
// report renders can be either.
func AppendFloat(dst []byte, f float64) []byte {
	// The report's rates and scores are mostly exactly 0 or 1; whole
	// numbers need no shortest-digits search.
	if -1e15 < f && f < 1e15 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) { // -0 prints as "-0"
			return strconv.AppendInt(dst, i, 10)
		}
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// AppendTime appends t as time.Time marshals to JSON: a quoted RFC 3339
// timestamp, nanoseconds with trailing zeros dropped. t's year must be
// within [0, 9999], as encoding/json requires.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}
