package beacon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qtag/internal/simrand"
)

// TestIngestRepliesMatchEncodingJSON: the ingest route's appended replies
// and httpError's are byte for byte what json.NewEncoder(w).Encode writes
// for the same values — on counts of every size and on error text
// carrying what encoding/json escapes: HTML-sensitive bytes, control
// bytes, U+2028 and U+2029, invalid UTF-8.
func TestIngestRepliesMatchEncodingJSON(t *testing.T) {
	nasty := []string{"", "ok", `quote"back\slash`, "<script>&amp;</script>", "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		"bad\xff\xfeutf8\xc3", "line\u2028sep\u2029para", "ünï©ødé-日本語-🙂", "\xed\xa0\x80surrogate"}
	rng := simrand.New(28).Fork("ingest-reply")
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := 0; i < 2000; i++ {
		var msg strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			msg.WriteString(nasty[rng.Intn(len(nasty))])
		}
		resp := ingestResponse{Accepted: rng.Intn(1 << (2 * rng.Intn(16))), Rejected: rng.Intn(70), Error: msg.String()}
		if got, want := appendIngestReply(nil, resp), encode(resp); !bytes.Equal(got, want) {
			t.Fatalf("reply to %+v:\n got %q\nwant %q", resp, got, want)
		}
		rr := httptest.NewRecorder()
		httpError(rr, http.StatusBadRequest, resp.Error)
		if want := encode(map[string]string{"error": resp.Error}); !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("error reply %q:\n got %q\nwant %q", resp.Error, rr.Body, want)
		}
	}

	// Through the handler: a validation error quotes the wire's event type.
	srv := NewServer(NewStore())
	for _, typ := range []string{"<b>&\u2028", "bad\xff"} {
		body, _ := json.Marshal(map[string]string{"impression_id": "i", "campaign_id": "c", "type": typ})
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body)))
		var reply ingestResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil || rr.Code != http.StatusUnprocessableEntity ||
			rr.Header().Get("Content-Type") != "application/json" || reply.Rejected != 1 {
			t.Fatalf("type %q: status %d, content-type %q, body %q (%v)", typ, rr.Code, rr.Header().Get("Content-Type"), rr.Body, err)
		}
		if want := encode(reply); !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("type %q:\n got %q\nwant %q", typ, rr.Body, want)
		}
	}
}
