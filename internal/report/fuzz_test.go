package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/jsonenc"
)

// FuzzReportJSON holds the report encoder to encoding/json:
//
//   - for any string, jsonenc.AppendString equals json.Marshal;
//   - for any finite float64 bit pattern, jsonenc.AppendFloat does;
//   - for any short event list — three bytes an event, choosing its
//     campaign, impression, solution, type and format, with the fuzzed
//     string standing in for one campaign, one solution and one format,
//     and one event in four sent twice — the rendered GET /report equals
//     the marshalled snapshots of the same stack.
//
// Seed corpus lives under testdata/fuzz/FuzzReportJSON.
func FuzzReportJSON(f *testing.F) {
	f.Add("camp-1", math.Float64bits(0.5), []byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3})
	f.Add("a\"b\\c<d>&e\x00\x1f  \xff", math.Float64bits(1e-7), []byte{0, 1, 5, 1, 1, 6, 2, 2, 7})
	f.Add("", math.Float64bits(1e21), []byte{})
	f.Add("\xed\xa0\x80", math.Float64bits(-0.0), []byte{3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, s string, bits uint64, prog []byte) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %q: %v", s, err)
		}
		if got := jsonenc.AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		if v := math.Float64frombits(bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
			if want, err = json.Marshal(v); err != nil {
				t.Fatalf("marshal %v: %v", v, err)
			}
			if got := jsonenc.AppendFloat(nil, v); !bytes.Equal(got, want) {
				t.Fatalf("AppendFloat(%v) = %s, json.Marshal = %s", v, got, want)
			}
		}

		if len(prog) > 3*64 {
			prog = prog[:3*64]
		}
		st := newStack(true, detect.Options{MinEvents: 2})
		campaigns := []string{"camp-a", "camp-b", "c" + s, "camp-a-longer"}
		sources := []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial, beacon.Source("s" + s)}
		formats := []string{"", "display", "f" + s, "banner"}
		types := []beacon.EventType{beacon.EventServed, beacon.EventLoaded, beacon.EventInView, beacon.EventOutOfView}
		for i := 0; i+2 < len(prog); i += 3 {
			e := beacon.Event{
				CampaignID:   campaigns[prog[i]%4],
				ImpressionID: "imp-" + strconv.Itoa(int(prog[i+1]%8)),
				Type:         types[prog[i+2]%4],
				At:           rt0.Add(time.Duration(prog[i+1]) * 250 * time.Millisecond),
				Meta:         beacon.Meta{Format: formats[prog[i+2]>>2%4], AdSize: []string{"", "1x1"}[prog[i]>>2%2], Slot: "slot"},
			}
			if e.Type != beacon.EventServed {
				e.Source = sources[prog[i+1]>>3%3]
			}
			st.submit(e)
			if prog[i+2]>>4%4 == 0 {
				st.submit(e)
			}
		}
		requireIdentical(t, st.a, st.d)
	})
}
