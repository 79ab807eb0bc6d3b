package qtag_test

import (
	"fmt"
	"time"

	qtagapi "qtag"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/simclock"
)

// Example_measureOneImpression shows the core flow: deploy Q-Tag inside a
// cross-origin creative iframe on the simulated browser and read the
// verdict off the collector.
func Example_measureOneImpression() {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: browser.CertificationProfiles()[1]})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument("https://publisher.example", geom.Size{W: 1280, H: 4000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe("https://dsp.example", geom.Rect{X: 100, Y: 120, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 300, H: 250})

	collector := qtagapi.NewCollector()
	rt := qtagapi.NewRuntime(page, creative, collector, qtagapi.Impression{
		ID: "imp-1", CampaignID: "launch", Format: qtagapi.Display,
	})
	if err := qtagapi.NewTag(qtagapi.TagConfig{}).Deploy(rt); err != nil {
		panic(err)
	}
	clock.Advance(1500 * time.Millisecond) // the user looks at the page

	fmt.Println("measured:", collector.Counts("launch").Measured["qtag"] == 1)
	fmt.Println("viewed:  ", collector.Counts("launch").Viewed["qtag"] == 1)
	// Output:
	// measured: true
	// viewed:   true
}

// Example_revenueModel reproduces the paper's §6.1 headline arithmetic.
func Example_revenueModel() {
	uplift := qtagapi.RevenueUplift(qtagapi.PaperMidSizeDSP())
	fmt.Printf("mid-size DSP: $%.1fk/day, $%.2fM/year\n", uplift.DailyUSD/1e3, uplift.AnnualUSD/1e6)
	// Output:
	// mid-size DSP: $9.5k/day, $3.47M/year
}

// Example_generateJS emits the first line of the deployable JavaScript
// tag.
func Example_generateJS() {
	js := qtagapi.GenerateJS(qtagapi.TagConfig{}, "https://monitor.example/v1/events",
		geom.Size{W: 300, H: 250})
	fmt.Println(js[:3])
	// Output:
	// /*!
}
