package beacon

import (
	"encoding/json"
	"testing"
	"time"
)

// benchEvents is a realistic ingest batch: production-shaped IDs, traced
// events, populated slicing metadata.
func benchEvents(n int) []Event {
	at := time.Unix(1500000000, 0).UTC()
	oses := []string{"android", "ios", "windows", "macos"}
	sites := []string{"news", "blog", "sports", "video"}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Event{
			ImpressionID: "load-w3-i004217",
			CampaignID:   "camp-11",
			Type:         EventInView,
			Source:       SourceQTag,
			At:           at,
			Seq:          i % 3,
			Trace:        "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
			Meta:         Meta{OS: oses[i%4], SiteType: sites[i%4], AdSize: "300x250"},
		})
	}
	return out
}

// BenchmarkBinaryCodec's allocs/op figures are gated exactly by `make
// alloc-gate` against the committed ALLOC_BASELINE.txt: encode and the
// pooled alias decode must stay at zero, the copying decodes at their
// fixed arena counts. Only deterministic benchmarks belong under this
// name — encoding/json's internals shift between Go versions, so the
// JSON contrast benches live under a name the gate does not match.
func BenchmarkBinaryCodec(b *testing.B) {
	events := benchEvents(64)
	frame := AppendBinaryEvents(nil, events)
	single := AppendBinaryEvent(nil, events[0])

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(frame))
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			buf = AppendBinaryEvents(buf[:0], events)
		}
		if len(buf) != len(frame) {
			b.Fatal("encode drifted")
		}
	})
	b.Run("decode", func(b *testing.B) {
		// The steady-state ingest path: a pooled decoder that has already
		// grown its scratch. Zero allocs/op, enforced by the gate.
		var dec BatchDecoder
		if _, err := dec.Decode(frame); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dec.Decode(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-copy", func(b *testing.B) {
		// The replay-path decode: one arena string + one []Event per batch.
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBinaryEvents(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-event", func(b *testing.B) {
		// The WAL/hint record decode: one arena string per record.
		b.ReportAllocs()
		b.SetBytes(int64(len(single)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBinaryEvent(single); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEventKeyAppend is the store's dedup-key path: the impression
// key its records are found by, appended into a stack buffer, must not
// allocate (gated).
func BenchmarkEventKeyAppend(b *testing.B) {
	e := benchEvents(1)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf [96]byte
		key := e.AppendImpressionKey(buf[:0])
		if len(key) == 0 {
			b.Fatal("empty key")
		}
	}
}

// JSON contrast benches — the other side of the binary codec's
// comparison story, excluded from the allocation gate because
// encoding/json allocation counts vary across Go versions.
func BenchmarkJSONCodecContrast(b *testing.B) {
	events := benchEvents(64)
	body, err := json.Marshal(events)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out []Event
			if err := json.Unmarshal(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
