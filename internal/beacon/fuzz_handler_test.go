package beacon

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzHandleEvents fuzzes the full POST /v1/events handler — body size
// limiting, JSON decoding, validation, and the atomic-batch contract —
// through a real ServeHTTP round trip. Invariants for ANY body:
//
//   - the handler never panics and never answers 5xx: malformed input is
//     the client's fault (4xx), a well-formed batch is accepted (2xx);
//   - a batch is never partially applied: any non-2xx response leaves
//     the store exactly as it was (422 means the WHOLE batch bounced);
//   - on 2xx the store grows by at most the accepted count (duplicates
//     are absorbed, never double-counted);
//   - a sink that takes the request whole (the store) and one that
//     takes it one event per call (a SinkFunc) answer alike and leave
//     the same number of events behind;
//   - on 2xx the sink was handed exactly the events json.Unmarshal reads
//     from the body, whichever decoder read them.
func FuzzHandleEvents(f *testing.F) {
	f.Add(`{"impression_id":"a","campaign_id":"c","type":"served"}`)
	f.Add(`[{"impression_id":"a","campaign_id":"c","source":"qtag","type":"loaded"}]`)
	f.Add(`[{"impression_id":"a","campaign_id":"c","type":"served"},{"type":"bogus"}]`)
	f.Add(`[]`)
	f.Add(``)
	f.Add(`not json`)
	f.Add(`null`)
	f.Add(`{"impression_id":"a","impression_id":"b","type":"served"}`)
	f.Add(`{"unknown_field":true,"type":"served"}`)
	f.Add(`[{},{},{}]`)
	f.Add(`{"type":"in_view","seq":-1}`)
	f.Add(`[` + strings.Repeat(`{"impression_id":"x","campaign_id":"c","type":"served"},`, 40) + `{}]`)
	f.Add(strings.Repeat("A", 4096)) // over the shrunken body limit
	f.Add("[{\"impression_id\":\"\\u0000\",\"campaign_id\":\"c\",\"type\":\"served\"}]")
	for _, body := range jsonDeclined {
		f.Add(body)
	}
	for _, body := range jsonAccepted {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		store := NewStore()
		code := fuzzPost(t, store, NewServer(store), body)
		perEvent := NewStore()
		var handed []Event
		sink := SinkFunc(func(e Event) error {
			handed = append(handed, e.owned())
			return perEvent.Submit(e)
		})
		if got := fuzzPost(t, perEvent, NewServerWithSink(perEvent, sink), body); got != code {
			t.Fatalf("batch path answered %d, per-event path %d, for body %q", code, got, body)
		}
		if store.Len() != perEvent.Len() {
			t.Fatalf("batch path stored %d events, per-event path %d, for body %q", store.Len(), perEvent.Len(), body)
		}
		if code >= 200 && code < 300 {
			want, err := decodeEvents([]byte(body))
			if err != nil {
				t.Fatalf("status %d for body %q, which encoding/json refuses: %v", code, body, err)
			}
			if len(handed)+len(want) > 0 && !reflect.DeepEqual(handed, want) {
				t.Fatalf("sink handed %+v, encoding/json reads %+v, for body %q", handed, want, body)
			}
		}
	})
}

// fuzzPost posts body to a fresh server over store, checks the
// per-request invariants and returns the status code.
func fuzzPost(t *testing.T, store *Store, server *Server, body string) int {
	t.Helper()
	server.SetMaxBodyBytes(2048) // small enough for the fuzzer to cross

	before := store.Len()
	req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	server.ServeHTTP(w, req) // a panic here fails the fuzz run

	code := w.Code
	if code >= 500 {
		t.Fatalf("5xx from handler: %d %q for body %q", code, w.Body.String(), body)
	}
	if code < 200 || code >= 300 {
		// Atomic batch: a rejected request applies nothing.
		if store.Len() != before {
			t.Fatalf("status %d but store grew %d -> %d for body %q", code, before, store.Len(), body)
		}
		if len(body) > 2048 && code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body answered %d, want 413", code)
		}
		return code
	}
	if got := store.Len(); int64(got) > server.Accepted() {
		t.Fatalf("store holds %d events but only %d were ever accepted", got, server.Accepted())
	}
	return code
}
