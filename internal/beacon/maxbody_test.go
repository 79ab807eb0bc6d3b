package beacon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandleEventsOversizedBody pins the body-size limit contract: a
// POST over the limit is refused with 413, the store is untouched, the
// rejection is counted on its own metric (not as a validation reject),
// and a right-sized request still works afterwards.
func TestHandleEventsOversizedBody(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	srv.SetMaxBodyBytes(1024)

	var batch []Event
	for i := 0; len(batch) < 64; i++ {
		batch = append(batch, Event{
			ImpressionID: fmt.Sprintf("imp-big-%03d", i),
			CampaignID:   "camp-1",
			Source:       SourceQTag,
			Type:         EventLoaded,
			At:           time.Unix(1500000000, 0).UTC(),
		})
	}
	big, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= 1024 {
		t.Fatalf("test batch is only %d bytes, need > 1024", len(big))
	}

	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(big)))
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413 (body: %s)", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "exceeds 1024 bytes") {
		t.Fatalf("413 body does not name the limit: %s", rr.Body.String())
	}
	if store.Len() != 0 {
		t.Fatalf("oversized request reached the store: %d events", store.Len())
	}
	if got := srv.Oversized(); got != 1 {
		t.Fatalf("Oversized() = %d, want 1", got)
	}
	if got := srv.Rejected(); got != 0 {
		t.Fatalf("oversized must not count as a validation reject, Rejected() = %d", got)
	}

	// The counter must surface on /metrics under its own name.
	mr := httptest.NewRecorder()
	srv.ServeHTTP(mr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mr.Body.String(), "qtag_ingest_oversized_total 1") {
		t.Fatalf("/metrics missing qtag_ingest_oversized_total 1:\n%s", mr.Body.String())
	}

	// A request within the limit still lands.
	small, _ := json.Marshal(batch[0])
	ok := httptest.NewRecorder()
	srv.ServeHTTP(ok, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(small)))
	if ok.Code != http.StatusAccepted {
		t.Fatalf("in-limit body after a 413 = %d, want 202", ok.Code)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d events, want 1", store.Len())
	}

	// n <= 0 restores the default limit; the big batch now fits.
	srv.SetMaxBodyBytes(0)
	again := httptest.NewRecorder()
	srv.ServeHTTP(again, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(big)))
	if again.Code != http.StatusAccepted {
		t.Fatalf("default-limit body = %d, want 202", again.Code)
	}
}

// unreadBody fails the test if the handler reads from it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body of a request refused by its Content-Length was read")
	return 0, io.EOF
}

// TestOversizedBodyRefusedFromTheHeader: a request that declares a
// Content-Length over the limit is refused with 413 before a byte of its
// body is read, whatever its Content-Type; a chunked body, whose length
// is not declared, is still cut off at the limit as it is read.
func TestOversizedBodyRefusedFromTheHeader(t *testing.T) {
	srv := NewServer(NewStore())
	srv.SetMaxBodyBytes(1024)
	post := func(body io.Reader, length int64, contentType string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/events", body)
		req.ContentLength = length
		req.Header.Set("Content-Type", contentType)
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		if rr.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rr.Body.String(), "exceeds 1024 bytes") {
			t.Fatalf("%s body of %d declared bytes = %d %s, want 413 naming the limit", contentType, length, rr.Code, rr.Body)
		}
	}
	post(unreadBody{t}, 1025, "application/json")
	post(unreadBody{t}, 4<<20, BinaryContentType)
	post(strings.NewReader(strings.Repeat(" ", 2048)), -1, "application/json")
	post(strings.NewReader(strings.Repeat(" ", 2048)), -1, BinaryContentType)
	if got := srv.Oversized(); got != 4 {
		t.Fatalf("Oversized() = %d, want 4", got)
	}
}
