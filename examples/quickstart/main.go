// Quickstart: measure the viewability of a single ad impression with
// Q-Tag on the simulated browser.
//
// It builds a publisher page holding the paper's canonical delivery
// structure — a creative inside two cross-domain iframes — deploys Q-Tag
// inside the creative, lets the user "look" at the page for a while,
// scrolls the ad away, and prints the beacons the monitoring store
// received.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	qtagapi "qtag"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/simclock"
)

func main() {
	// A virtual clock drives everything; nothing sleeps.
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: browser.CertificationProfiles()[1]}) // Chrome 75 / Win10
	defer b.Close()

	// Publisher page: 1280×720 viewport over a 6000px-tall page.
	window := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument("https://publisher.example", geom.Size{W: 1280, H: 6000})
	page := window.ActiveTab().Navigate(doc)

	// The ad: a 300×250 creative inside exchange→DSP cross-domain iframes,
	// 150px below the top of the page (above the fold).
	exchangeFrame := doc.Root().AttachIframe("https://exchange.example",
		geom.Rect{X: 200, Y: 150, W: 300, H: 250})
	dspFrame := exchangeFrame.Root().AttachIframe("https://dsp.example",
		geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	creative := dspFrame.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: 300, H: 250})

	// SOP in action: the creative cannot learn its position in the top
	// viewport — the reason Q-Tag exists.
	if _, err := creative.BoundingRectInTop(); err != nil {
		fmt.Println("geometry API from the creative iframe:", err)
	}

	// Deploy Q-Tag with the paper's defaults (25-pixel X layout, 20fps
	// threshold) and an in-process collector as the monitoring server.
	collector := qtagapi.NewCollector()
	rt := qtagapi.NewRuntime(page, creative, collector, qtagapi.Impression{
		ID: "imp-0001", CampaignID: "quickstart", Format: qtagapi.Display,
	})
	if err := qtagapi.NewTag(qtagapi.TagConfig{}).Deploy(rt); err != nil {
		panic(err)
	}

	// The user looks at the page for 2 seconds (the ad is in view, so the
	// ≥50%-for-≥1s display criteria are met)...
	clock.Advance(2 * time.Second)
	// ...then scrolls deep into the article, pushing the ad out of view.
	page.ScrollTo(geom.Point{Y: 3000})
	clock.Advance(1 * time.Second)

	fmt.Println("\nbeacons received by the monitoring store:")
	for _, e := range collector.Events() {
		fmt.Printf("  %-12s at %6v\n", e.Type, e.At.Sub(simclock.Epoch))
	}
	fmt.Printf("\nimpression measured: %v, viewed: %v\n",
		collector.Counts("quickstart").Measured["qtag"] > 0,
		collector.Counts("quickstart").Viewed["qtag"] > 0)
}
