package cert

import (
	"errors"
	"fmt"
	"time"

	"qtag/internal/adserve"
	"qtag/internal/adtag"
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/dsp"
	"qtag/internal/geom"
	"qtag/internal/qtag"
	"qtag/internal/simclock"
	"qtag/internal/simrand"
	"qtag/internal/viewability"
)

// PlacementResult is the outcome of the §4.3 random-placement analysis:
// N placements of a double cross-domain iframe, Q-Tag's in-view decision
// checked against exact geometry. The paper reports 10,000/10,000.
type PlacementResult struct {
	Total     int
	Correct   int
	Mismatch  int
	InViewGT  int // placements whose ground truth is "in view"
	OutViewGT int
}

// Accuracy returns Correct/Total.
func (p PlacementResult) Accuracy() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Correct) / float64(p.Total)
}

// String implements fmt.Stringer.
func (p PlacementResult) String() string {
	return fmt.Sprintf("%d/%d correct (%.2f%%; ground truth %d in-view / %d out)",
		p.Correct, p.Total, p.Accuracy()*100, p.InViewGT, p.OutViewGT)
}

// RunRandomPlacements places a double-iframed ad at n random positions of
// the testing website (10-pixel grid with a 3-pixel offset, covering
// wholly visible, partially visible and out-of-view cases) and compares
// Q-Tag's in-view decision against the exact-geometry oracle.
func RunRandomPlacements(n int, seed uint64) PlacementResult {
	rng := simrand.New(seed)
	res := PlacementResult{Total: n}
	const (
		vpW, vpH = 1280.0, 720.0
		adW, adH = 300.0, 250.0
	)
	for i := 0; i < n; i++ {
		// Positions on the testing website: x within the page width,
		// y anywhere from above the fold to deep below it.
		x := float64(rng.Intn(int(vpW-adW)/10))*10 + 3
		y := float64(rng.Intn(200))*10 + 3 // 3 .. 1993

		clock := simclock.New()
		b := browser.New(clock, browser.Options{Profile: browser.CertificationProfiles()[1]})
		w := b.OpenWindow(geom.Point{}, geom.Size{W: vpW, H: vpH})
		doc := dom.NewDocument(pubOrigin, geom.Size{W: vpW, H: 4000})
		page := w.ActiveTab().Navigate(doc)
		outer := doc.Root().AttachIframe(exchangeOrigin, geom.Rect{X: x, Y: y, W: adW, H: adH})
		inner := outer.Root().AttachIframe(dspOrigin, geom.Rect{X: 0, Y: 0, W: adW, H: adH})
		creative := inner.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: adW, H: adH})

		store := beacon.NewStore()
		agg := aggregate.Attach(store, aggregate.Options{TTL: -1})
		rt := adtag.NewRuntime(page, creative, store, adtag.Impression{
			ID: "p", CampaignID: "p", Format: viewability.Display,
		})
		if err := qtag.New(qtag.Config{}).Deploy(rt); err != nil {
			b.Close()
			continue
		}
		// Ground truth from exact geometry: ≥50% of the ad visible.
		truth := page.TrueVisibleFraction(creative) >= 0.5
		clock.Advance(2 * time.Second) // static exposure well past the 1s dwell
		got := agg.Totals().Viewed[beacon.SourceQTag] > 0
		b.Close()

		if truth {
			res.InViewGT++
		} else {
			res.OutViewGT++
		}
		if got == truth {
			res.Correct++
		} else {
			res.Mismatch++
		}
	}
	return res
}

// MobileInAppResult is one §4.3 mobile in-app check.
type MobileInAppResult struct {
	Profile  string
	AdSize   geom.Size
	Measured bool
	InView   bool
}

// RunMobileInApp previews creatives inside an app webview (the paper uses
// Google's Creative Preview app) for the two creative sizes of the §5
// campaigns and reports whether Q-Tag measured them correctly.
func RunMobileInApp(prof browser.Profile) []MobileInAppResult {
	sizes := []geom.Size{{W: 300, H: 250}, {W: 320, H: 50}}
	var out []MobileInAppResult
	for _, size := range sizes {
		clock := simclock.New()
		b := browser.New(clock, browser.Options{Profile: prof})
		w := b.OpenWindow(geom.Point{}, geom.Size{W: 412, H: 800})
		doc := dom.NewDocument(pubOrigin, geom.Size{W: 412, H: 1600})
		page := w.ActiveTab().Navigate(doc)
		outer := doc.Root().AttachIframe(exchangeOrigin, geom.Rect{X: 20, Y: 120, W: size.W, H: size.H})
		inner := outer.Root().AttachIframe(dspOrigin, geom.Rect{X: 0, Y: 0, W: size.W, H: size.H})
		creative := inner.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: size.W, H: size.H})
		store := beacon.NewStore()
		agg := aggregate.Attach(store, aggregate.Options{TTL: -1})
		rt := adtag.NewRuntime(page, creative, store, adtag.Impression{
			ID: "m", CampaignID: "m", Format: viewability.Display,
		})
		measured := qtag.New(qtag.Config{}).Deploy(rt) == nil
		clock.Advance(2 * time.Second)
		out = append(out, MobileInAppResult{
			Profile:  prof.Name,
			AdSize:   size,
			Measured: measured,
			InView:   agg.Totals().Viewed[beacon.SourceQTag] > 0,
		})
		b.Close()
	}
	return out
}

// BlockerResult is the outcome of the §4.3 ad-blocker analysis for one ad
// type.
type BlockerResult struct {
	AdType        string
	Attempts      int
	Blocked       int
	TagsDeployed  int
	EventsEmitted int
}

// RunAdblockCheck attempts to deliver three ad types (display, large
// display, video) to 50 random slot positions each, in a browser with a
// content blocker, and verifies that neither the ad nor Q-Tag deploys.
// The same routine serves the Brave check by passing the Brave profile.
func RunAdblockCheck(prof browser.Profile, useExtension bool, seed uint64) []BlockerResult {
	rng := simrand.New(seed)
	types := []struct {
		name  string
		size  geom.Size
		video bool
	}{
		{"display", geom.Size{W: 300, H: 250}, false},
		{"large-display", geom.Size{W: 970, H: 250}, false},
		{"video", geom.Size{W: 640, H: 360}, true},
	}
	var out []BlockerResult
	for _, typ := range types {
		res := BlockerResult{AdType: typ.name, Attempts: 50}
		for i := 0; i < 50; i++ {
			clock := simclock.New()
			b := browser.New(clock, browser.Options{Profile: prof})
			if useExtension {
				b.SetAdBlockExtension(true)
			}
			w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
			doc := dom.NewDocument(pubOrigin, geom.Size{W: 1280, H: 4000})
			page := w.ActiveTab().Navigate(doc)
			slot := doc.Root().AppendChild("ad-slot", geom.Rect{
				X: float64(rng.Intn(900)), Y: float64(rng.Intn(3000)),
				W: typ.size.W, H: typ.size.H,
			})

			store := beacon.NewStore()
			exchange := adserve.NewExchange("appnexus")
			platform := dsp.New("sonata")
			platform.AddCampaign(&dsp.Campaign{
				ID: "ab-" + typ.name, BidCPM: 1,
				Creative: adserve.Creative{ID: typ.name, Size: typ.size, Video: typ.video},
				Tags:     []adtag.Tag{qtag.New(qtag.Config{})},
			})
			exchange.Register(platform)
			deliverer := &adserve.Deliverer{Exchange: exchange, ServerSink: store, TagSink: store}
			del, err := deliverer.Deliver(&adserve.SlotRequest{Page: page, Slot: slot})
			if errors.Is(err, adserve.ErrAdBlocked) {
				res.Blocked++
			} else if err == nil {
				res.TagsDeployed += len(del.Runtimes)
			}
			clock.Advance(2 * time.Second)
			res.EventsEmitted += store.Len()
			b.Close()
		}
		out = append(out, res)
	}
	return out
}

// PrivacyResult is the §4.3 privacy-enhanced-browser analysis for one
// profile.
type PrivacyResult struct {
	Profile           string
	CookiesBlocked    bool
	QTagMeasured      bool
	QTagInView        bool
	DeliveredNormally bool
}

// RunPrivacyBrowserCheck delivers an instrumented ad in a privacy-
// enhanced browser (third-party cookies blocked by default) and verifies
// Q-Tag operates normally — it is pure JavaScript and needs no cookies.
func RunPrivacyBrowserCheck(prof browser.Profile) PrivacyResult {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: prof})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pubOrigin, geom.Size{W: 1280, H: 4000})
	page := w.ActiveTab().Navigate(doc)
	slot := doc.Root().AppendChild("ad-slot", geom.Rect{X: 200, Y: 100, W: 300, H: 250})

	store := beacon.NewStore()
	agg := aggregate.Attach(store, aggregate.Options{TTL: -1})
	exchange := adserve.NewExchange("doubleclick")
	platform := dsp.New("sonata")
	platform.AddCampaign(&dsp.Campaign{
		ID: "privacy", BidCPM: 1,
		Creative: adserve.Creative{ID: "cr", Size: geom.Size{W: 300, H: 250}},
		Tags:     []adtag.Tag{qtag.New(qtag.Config{})},
	})
	exchange.Register(platform)
	deliverer := &adserve.Deliverer{Exchange: exchange, ServerSink: store, TagSink: store}
	del, err := deliverer.Deliver(&adserve.SlotRequest{Page: page, Slot: slot})
	clock.Advance(2 * time.Second)
	counts := agg.Totals()
	return PrivacyResult{
		Profile:           prof.Name,
		CookiesBlocked:    prof.BlocksThirdPartyCookies,
		QTagMeasured:      counts.Measured[beacon.SourceQTag] > 0,
		QTagInView:        counts.Viewed[beacon.SourceQTag] > 0,
		DeliveredNormally: err == nil && del != nil && len(del.Runtimes) == 1,
	}
}
