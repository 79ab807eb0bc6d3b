package beacon

import (
	"encoding/json"
	"unicode/utf8"
	"unsafe"
)

// The JSON ingest decoder: no reflection, and strings that alias the
// input, as the binary decoder's do. It takes what json.Marshal(Event)
// and the JS tag write — an event object or a non-empty array of them,
// the keys of Event and Meta byte for byte, strings with no escape or
// control byte in valid UTF-8, seq as an integer of at most 18 digits —
// and declines anything else to encoding/json, so every error the ingest
// routes answer with is encoding/json's. What it takes decodes as
// json.Unmarshal decodes it (FuzzDecodeEvents), duplicate keys included.

// decodeJSON decodes a JSON request body under BatchDecoder's aliasing
// contract, or through decodeEvents (encoding/json, which copies) where
// the decoder declines it.
func (d *BatchDecoder) decodeJSON(b []byte) ([]Event, error) {
	events, ok := appendJSONEvents(d.scratch(), aliasString(b))
	if !ok {
		return decodeEvents(b)
	}
	d.events = events[:0]
	return events, nil
}

// decodeEvent decodes one JSON event object, as json.Unmarshal into an
// Event does. Its strings alias s.
func decodeEvent(s string) (Event, error) {
	var e Event
	if i, ok := parseEvent(s, skipSpace(s, 0), &e); ok && skipSpace(s, i) == len(s) {
		return e, nil
	}
	e = Event{}
	err := json.Unmarshal([]byte(s), &e)
	return e, err
}

// appendJSONEvents appends the events of s to dst, or reports false if
// it declines s.
func appendJSONEvents(dst []Event, s string) ([]Event, bool) {
	i := skipSpace(s, 0)
	array := i < len(s) && s[i] == '['
	if array {
		i++
	}
	for {
		dst = append(dst, Event{})
		var ok bool
		if i, ok = parseEvent(s, skipSpace(s, i), &dst[len(dst)-1]); !ok {
			return dst, false
		}
		i = skipSpace(s, i)
		if !array || i == len(s) || s[i] != ',' {
			break
		}
		i++
	}
	if array {
		if i == len(s) || s[i] != ']' {
			return dst, false
		}
		i = skipSpace(s, i+1)
	}
	return dst, i == len(s)
}

// The keys of Event's and Meta's string fields, in parseEvent's order.
var (
	eventKeys = []string{"impression_id", "campaign_id", "source", "type", "trace"}
	metaKeys  = []string{"os", "site_type", "ad_size", "format", "country", "exchange", "slot"}
)

// parseEvent decodes the event object at s[i:] into e and returns the
// offset after it.
func parseEvent(s string, i int, e *Event) (int, bool) {
	return parseObject(s, i, func(key string, i int) (int, bool) {
		var ok bool
		switch key {
		case "seq":
			e.Seq, i, ok = parseInt(s, i)
		case "at":
			// The call encoding/json makes, on the quoted literal.
			start := i
			if _, i, ok = parseString(s, i); ok {
				ok = e.At.UnmarshalJSON(unsafe.Slice(unsafe.StringData(s[start:i]), i-start)) == nil
			}
		case "meta":
			return parseObject(s, i, func(key string, i int) (int, bool) {
				m := &e.Meta
				return parseField(s, i, key, metaKeys, &m.OS, &m.SiteType, &m.AdSize, &m.Format, &m.Country, &m.Exchange, &m.Slot)
			})
		default:
			return parseField(s, i, key, eventKeys, &e.ImpressionID, &e.CampaignID, (*string)(&e.Source), (*string)(&e.Type), &e.Trace)
		}
		return i, ok
	})
}

// parseField decodes the string at s[i:] into the field of fields whose
// key in keys is key.
func parseField(s string, i int, key string, keys []string, fields ...*string) (int, bool) {
	for k, name := range keys {
		if key == name {
			var ok bool
			*fields[k], i, ok = parseString(s, i)
			return i, ok
		}
	}
	return i, false
}

// parseObject walks the object at s[i:], handing member each key and the
// offset of its value; member returns the offset after the value, or
// false for a key or value it declines. parseObject returns the offset
// after the object.
func parseObject(s string, i int, member func(key string, i int) (int, bool)) (int, bool) {
	if i == len(s) || s[i] != '{' {
		return i, false
	}
	if i = skipSpace(s, i+1); i < len(s) && s[i] == '}' {
		return i + 1, true
	}
	for {
		key, ok := "", false
		if key, i, ok = parseString(s, i); !ok {
			return i, false
		}
		if i = skipSpace(s, i); i == len(s) || s[i] != ':' {
			return i, false
		}
		if i, ok = member(key, skipSpace(s, i+1)); !ok {
			return i, false
		}
		if i = skipSpace(s, i); i == len(s) {
			return i, false
		}
		switch s[i] {
		case '}':
			return i + 1, true
		case ',':
			i = skipSpace(s, i+1)
		default:
			return i, false
		}
	}
}

// parseString reads the string at s[i:]: one without escapes or control
// bytes, in valid UTF-8, so that its bytes are its value.
func parseString(s string, i int) (string, int, bool) {
	if i == len(s) || s[i] != '"' {
		return "", i, false
	}
	ascii := true
	for j := i + 1; j < len(s); j++ {
		switch c := s[j]; {
		case c == '"':
			v := s[i+1 : j]
			return v, j + 1, ascii || utf8.ValidString(v)
		case c < 0x20 || c == '\\':
			return "", j, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", len(s), false
}

// parseInt reads the integer literal at s[i:], of at most 18 digits so
// that it cannot overflow. A fraction or an exponent is left for the
// caller to decline, as the byte after the literal.
func parseInt(s string, i int) (int, int, bool) {
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		n = n*10 + int64(s[i]-'0')
	}
	digits := i - start
	if digits == 0 || digits > 18 || digits > 1 && s[start] == '0' || int64(int(n)) != n {
		return 0, i, false
	}
	if neg {
		n = -n
	}
	return int(n), i, true
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}
