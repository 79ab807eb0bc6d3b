package commercial

import (
	"errors"
	"testing"
	"time"

	"qtag/internal/adtag"
	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/simclock"
	"qtag/internal/viewability"
)

const (
	pub = dom.Origin("https://publisher.example")
	dsp = dom.Origin("https://dsp.example")
)

type fixture struct {
	clock   *simclock.Clock
	browser *browser.Browser
	page    *browser.Page
	store   *beacon.Store
	rec     *beacon.Recorder
	rt      *adtag.Runtime
	err     error
}

func deploy(t *testing.T, prof browser.Profile, sameOrigin bool, adY float64) *fixture {
	t.Helper()
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: prof})
	t.Cleanup(b.Close)
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 6000})
	page := w.ActiveTab().Navigate(doc)
	origin := dsp
	if sameOrigin {
		origin = pub
	}
	frame := doc.Root().AttachIframe(origin, geom.Rect{X: 200, Y: adY, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	store := beacon.NewStore()
	rec := beacon.Record(store)
	rt := adtag.NewRuntime(page, creative, store, adtag.Impression{
		ID: "imp-1", CampaignID: "camp-1", Format: viewability.Display,
	})
	err := New(Config{}).Deploy(rt)
	return &fixture{clock: clock, browser: b, page: page, store: store, rec: rec, rt: rt, err: err}
}

func (f *fixture) has(typ beacon.EventType) bool {
	for _, e := range f.rec.Events() {
		if e.Type == typ && e.Source == beacon.SourceCommercial {
			return true
		}
	}
	return false
}

func chrome() browser.Profile { return browser.CertificationProfiles()[1] }

func TestMeasuresViaIntersectionObserver(t *testing.T) {
	f := deploy(t, chrome(), false, 100) // cross-origin, but Chrome has IO
	if f.err != nil {
		t.Fatalf("deploy: %v", f.err)
	}
	if !f.has(beacon.EventLoaded) {
		t.Fatal("loaded beacon missing")
	}
	f.clock.Advance(1500 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Error("in-view missing after 1.5s full visibility")
	}
	f.page.ScrollTo(geom.Point{Y: 2000})
	f.clock.Advance(500 * time.Millisecond)
	if !f.has(beacon.EventOutOfView) {
		t.Error("out-of-view missing after scroll away")
	}
}

func TestCannotMeasureCrossOriginWithoutIO(t *testing.T) {
	prof := browser.AndroidWebViewProfile(true) // old webview: no IO
	f := deploy(t, prof, false, 100)
	if !errors.Is(f.err, ErrCannotMeasure) {
		t.Fatalf("err = %v, want ErrCannotMeasure", f.err)
	}
	if f.store.Len() != 0 {
		t.Error("unmeasurable impression must emit no beacons")
	}
}

func TestGeometryFallbackSameOrigin(t *testing.T) {
	// IE11: no IntersectionObserver, but a same-origin (friendly) iframe
	// allows geometry polling.
	ie := browser.CertificationProfiles()[2]
	if ie.Browser != "IE" {
		t.Fatal("profile order changed")
	}
	f := deploy(t, ie, true, 100)
	if f.err != nil {
		t.Fatalf("deploy via geometry should work same-origin: %v", f.err)
	}
	f.clock.Advance(1500 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Error("geometry path in-view missing")
	}
	// Scrolling away is visible to geometry polling.
	f.page.ScrollTo(geom.Point{Y: 3000})
	f.clock.Advance(500 * time.Millisecond)
	if !f.has(beacon.EventOutOfView) {
		t.Error("geometry path out-of-view missing")
	}
}

func TestGeometryFallbackCrossOriginFails(t *testing.T) {
	ie := browser.CertificationProfiles()[2]
	f := deploy(t, ie, false, 100)
	if !errors.Is(f.err, ErrCannotMeasure) {
		t.Fatalf("err = %v, want ErrCannotMeasure", f.err)
	}
}

func TestGeometryPathRespectsPageVisibility(t *testing.T) {
	ie := browser.CertificationProfiles()[2]
	f := deploy(t, ie, true, 100)
	if f.err != nil {
		t.Fatal(f.err)
	}
	f.clock.Advance(1500 * time.Millisecond) // in-view
	w := f.page.Tab().Window()
	w.ActivateTab(w.NewTab())
	f.clock.Advance(500 * time.Millisecond)
	if !f.has(beacon.EventOutOfView) {
		t.Error("tab switch should register via the Page Visibility API")
	}
}

func TestGeometryPathBlindToOcclusion(t *testing.T) {
	// Documented limitation: geometry polling cannot see window occlusion,
	// so the ad keeps "counting" dwell while covered.
	ie := browser.CertificationProfiles()[2]
	f := deploy(t, ie, true, 100)
	if f.err != nil {
		t.Fatal(f.err)
	}
	f.page.Tab().Window().SetObscured(true)
	f.clock.Advance(2 * time.Second)
	if !f.has(beacon.EventInView) {
		t.Error("geometry path is expected to (incorrectly) report in-view while obscured")
	}
}

func TestBelowFoldNoInView(t *testing.T) {
	f := deploy(t, chrome(), false, 3000)
	if f.err != nil {
		t.Fatal(f.err)
	}
	f.clock.Advance(3 * time.Second)
	if f.has(beacon.EventInView) {
		t.Error("below-the-fold ad must not be in-view")
	}
	if !f.has(beacon.EventLoaded) {
		t.Error("loaded should fire: the impression is measured (as not viewed)")
	}
}

func TestVideoCriteria(t *testing.T) {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: chrome()})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe(dsp, geom.Rect{X: 0, Y: 0, W: 640, H: 360})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 640, H: 360})
	store := beacon.NewStore()
	rec := beacon.Record(store)
	rt := adtag.NewRuntime(page, creative, store, adtag.Impression{
		ID: "v", CampaignID: "c", Format: viewability.Video,
	})
	if err := New(Config{}).Deploy(rt); err != nil {
		t.Fatal(err)
	}
	clock.Advance(1500 * time.Millisecond)
	if inViews(rec) != 0 {
		t.Error("video in-view before 2s")
	}
	clock.Advance(800 * time.Millisecond)
	if inViews(rec) != 1 {
		t.Error("video in-view missing after 2.3s")
	}
}

// inViews counts the commercial in-view beacons rec holds.
func inViews(rec *beacon.Recorder) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Type == beacon.EventInView && e.Source == beacon.SourceCommercial {
			n++
		}
	}
	return n
}

func TestTagName(t *testing.T) {
	if New(Config{}).Name() != "commercial" {
		t.Error("name wrong")
	}
}

func TestCriteriaOverride(t *testing.T) {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: chrome()})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe(dsp, geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 300, H: 250})
	store := beacon.NewStore()
	rec := beacon.Record(store)
	rt := adtag.NewRuntime(page, creative, store, adtag.Impression{ID: "i", CampaignID: "c"})
	crit := viewability.Criteria{AreaFraction: 0.5, Dwell: 4 * time.Second}
	if err := New(Config{Criteria: &crit}).Deploy(rt); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Second)
	if inViews(rec) != 0 {
		t.Error("override dwell ignored")
	}
	clock.Advance(2 * time.Second)
	if inViews(rec) != 1 {
		t.Error("in-view missing after override dwell")
	}
}
