package beacon

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// checkJSONDecoder holds the JSON decoder to encoding/json on body:
// where it accepts, decodeEvents accepts too, with DeepEqual events, and
// decodeEvent (the pixel route's) answers as json.Unmarshal into an Event
// does. It reports whether the decoder accepted body.
func checkJSONDecoder(t *testing.T, body string) bool {
	t.Helper()
	var ref Event
	rerr := json.Unmarshal([]byte(body), &ref)
	e, err := decodeEvent(body)
	if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() || err == nil && !reflect.DeepEqual(e, ref) {
		t.Fatalf("decodeEvent(%q) = %+v, %v; json.Unmarshal gives %+v, %v", body, e, err, ref, rerr)
	}
	got, ok := appendJSONEvents(nil, body)
	if !ok {
		return false
	}
	want, werr := decodeEvents([]byte(body))
	if werr != nil {
		t.Fatalf("decoder accepted %q, which encoding/json refuses: %v", body, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoder and encoding/json differ on %q:\n decoder %+v\n    json %+v", body, got, want)
	}
	return true
}

// jsonDeclined are bodies the decoder leaves to encoding/json, whether
// that accepts them or not.
var jsonDeclined = []string{
	``,
	`   `,
	`null`,
	`[]`,
	`[ ]`,
	`[null]`,
	`"served"`,
	`not json`,
	`{"impression_id":"a\u0062"}`,
	`{"impression_id":"a\nb"}`,
	"{\"impression_id\":\"a\tb\"}",
	"{\"impression_id\":\"\xff\"}",
	"{\"meta\":{\"os\":\"\xc3\"}}",
	`{"Impression_ID":"a"}`,
	`{"IMPRESSION_ID":"a"}`,
	`{"impression_id":"a","unknown":1}`,
	`{"Deadline":"2019-01-01T00:00:00Z"}`,
	`{"meta":{"os":"a","OS":"b"}}`,
	`{"meta":{"device":"phone"}}`,
	`{"impression_id":null}`,
	`{"impression_id":true}`,
	`{"impression_id":false}`,
	`{"impression_id":7}`,
	`{"seq":1.0}`,
	`{"seq":1e2}`,
	`{"seq":1E2}`,
	`{"seq":"1"}`,
	`{"seq":null}`,
	`{"seq":01}`,
	`{"seq":-}`,
	`{"seq":1234567890123456789}`,
	`{"seq":-1234567890123456789}`,
	`{"at":null}`,
	`{"at":"yesterday"}`,
	`{"at":"2019-01-01T00:00:00\u005a"}`,
	`{"at":1546300800}`,
	`{"meta":null}`,
	`{"meta":[]}`,
	`{"impression_id":"a"} {}`,
	`{"impression_id":"a"}x`,
	`[{"impression_id":"a"}]]`,
	`[{"impression_id":"a"},]`,
	`[{"impression_id":"a"}`,
	`{"impression_id":"a",}`,
	`{"impression_id":"a"`,
	`{"impression_id" "a"}`,
	`{impression_id:"a"}`,
	"\v{}",
	"{}\u00a0",
}

// jsonAccepted are bodies the decoder takes itself.
var jsonAccepted = []string{
	`{}`,
	` {} `,
	"\t\r\n[ {} ,\n{ } ]\n",
	`{"impression_id":"a","campaign_id":"c","type":"served"}`,
	`[{"impression_id":"a","campaign_id":"c","source":"qtag","type":"loaded"}]`,
	`{"impression_id":"a","campaign_id":"c","source":"qtag","type":"in-view","at":"2019-01-01T00:00:01.000Z"}`,
	`{"impression_id":"a","at":"2019-01-01T02:00:01.5+02:00"}`,
	`{"impression_id":"a","at":"2019-01-01T00:00:01-07:30"}`,
	`{"seq":0}`, `{"seq":-0}`, `{"seq":-12}`, `{"seq":123456789012345678}`, `{"seq":-123456789012345678}`,
	`{"type":"bogus","seq":-1}`,
	`{"impression_id":"a","impression_id":"b"}`,
	`{"meta":{"os":"ios","slot":"s1"},"meta":{"os":"android","country":"es"}}`,
	`{"meta":{}}`,
	`{"impression_id":"éñ日本","meta":{"site_type":"🙂"}}`,
	`{"trace":"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"}`,
	`{"impression_id":"` + strings.Repeat("x", 1000) + `"}`,
	`{ "impression_id" : "a" , "meta" : { "os" : "ios" , "site_type" : "app" , "ad_size" : "300x250" , "format" : "display" , "country" : "es" , "exchange" : "x" , "slot" : "s" } }`,
}

func TestJSONDecoderDeclines(t *testing.T) {
	for _, body := range jsonDeclined {
		if checkJSONDecoder(t, body) {
			t.Errorf("decoder accepted %q", body)
		}
	}
}

func TestJSONDecoderAccepts(t *testing.T) {
	for _, body := range jsonAccepted {
		if !checkJSONDecoder(t, body) {
			t.Errorf("decoder declined %q", body)
		}
	}
}

// TestJSONDecoderAcceptsMarshalled: every json.Marshal(Event) takes the
// decoder, as one object and in an array — the decode the ingest routes'
// JSON traffic is meant to pay for.
func TestJSONDecoderAcceptsMarshalled(t *testing.T) {
	types := []EventType{EventServed, EventLoaded, EventInView, EventOutOfView}
	var events []Event
	for i := range 200 {
		e := Event{
			ImpressionID: "imp-" + strconv.Itoa(i/4), CampaignID: "camp-" + strconv.Itoa(i%7),
			Type: types[i%4], Seq: i % 3,
			At: time.Date(2019, 1, 1, 0, 0, i, i*1e6, time.FixedZone("", 3600*(i%5-2))),
			Meta: Meta{OS: "ios", SiteType: "app", AdSize: "300x250", Format: "video",
				Country: "es", Exchange: "x1", Slot: "slot-" + strconv.Itoa(i%9)},
		}
		if e.Type != EventServed {
			e.Source = SourceQTag
		}
		if i%2 == 0 {
			e.Trace = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
		}
		events = append(events, e)
	}
	for _, e := range events {
		body, _ := json.Marshal(e)
		if !checkJSONDecoder(t, string(body)) {
			t.Fatalf("decoder declined %s", body)
		}
	}
	body, _ := json.Marshal(events)
	if !checkJSONDecoder(t, string(body)) {
		t.Fatal("decoder declined the array")
	}
}

// TestJSONDecoderAllocatesNothing: a one-event body, decoded into warm
// scratch, allocates nothing.
func TestJSONDecoderAllocatesNothing(t *testing.T) {
	body := []byte(`{"impression_id":"a","campaign_id":"c","source":"qtag","type":"in-view","seq":2,` +
		`"at":"2019-01-01T00:00:01.000Z","meta":{"os":"ios","slot":"s1"}}`)
	var d BatchDecoder
	if allocs := testing.AllocsPerRun(100, func() {
		if events, err := d.decodeJSON(body); err != nil || len(events) != 1 {
			t.Fatal(events, err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per decode", allocs)
	}
}
