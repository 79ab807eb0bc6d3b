// JS tag generation and ingestion: emits the deployable JavaScript
// Q-Tag (the artifact a real DSP ships inside creatives), shows the
// embed snippet, and demonstrates that the collection server ingests the
// tag's legacy image-pixel fallback (GET /v1/events?e=...) as well as
// sendBeacon POSTs.
//
// Run with: go run ./examples/jstag
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	qtagapi "qtag"
	"qtag/internal/beacon"
	"qtag/internal/geom"
	"qtag/internal/qtag"
)

func main() {
	// 1. A live collection server.
	collector := qtagapi.NewCollector()
	srv := httptest.NewServer(qtagapi.NewCollectionServer(collector))
	defer srv.Close()
	endpoint := srv.URL + "/v1/events"

	// 2. Generate the JavaScript tag for a 300×250 creative with the
	// paper's defaults.
	js := qtag.GenerateJS(qtag.Config{}, endpoint, geom.Size{W: 300, H: 250})
	head := strings.SplitAfterN(js, "})();", 1)[0]
	fmt.Println("generated tag (first lines):")
	for i, line := range strings.Split(head, "\n") {
		if i >= 12 {
			fmt.Println("  …")
			break
		}
		fmt.Println("  " + line)
	}
	fmt.Printf("\ntotal size: %d bytes of self-contained ES5\n", len(js))
	fmt.Println("\nembed as:")
	fmt.Println(`  <script data-impression="imp-123" data-campaign="camp-7"`)
	fmt.Println(`          data-format="display" src="qtag.js"></script>`)

	// 3. Simulate what the tag's beacons look like on the wire — first a
	// sendBeacon POST, then the image-pixel GET fallback.
	post := map[string]string{
		"impression_id": "imp-123", "campaign_id": "camp-7",
		"source": "qtag", "type": "loaded",
		"at": time.Now().UTC().Format(time.RFC3339),
	}
	body, _ := json.Marshal(post)
	resp, err := http.Post(endpoint, "application/json", strings.NewReader(string(body)))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()

	pixelPayload := `{"impression_id":"imp-123","campaign_id":"camp-7","source":"qtag","type":"in-view"}`
	resp, err = http.Get(endpoint + "?e=" + url.QueryEscape(pixelPayload))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\npixel fallback answered with %s (%s)\n",
		resp.Status, resp.Header.Get("Content-Type"))
	resp.Body.Close()

	fmt.Println("\nevents the server holds now:")
	for _, e := range collector.Events() {
		fmt.Printf("  %s\n", e)
	}
	fmt.Printf("\ncampaign camp-7: measured=%v viewed=%v\n",
		collector.Counts("camp-7").Measured[beacon.SourceQTag] > 0,
		collector.Counts("camp-7").Viewed[beacon.SourceQTag] > 0)
}
