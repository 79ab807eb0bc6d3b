package adtag

import (
	"errors"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/simclock"
)

const (
	pub = dom.Origin("https://publisher.example")
	dsp = dom.Origin("https://dsp.example")
)

type env struct {
	clock    *simclock.Clock
	browser  *browser.Browser
	page     *browser.Page
	creative *dom.Element
	store    *beacon.Store
	rec      *beacon.Recorder
	rt       *Runtime
}

// newEnv builds a runtime for a creative inside a single iframe whose
// origin is chosen by sameOrigin.
func newEnv(t *testing.T, prof browser.Profile, sameOrigin bool) *env {
	t.Helper()
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: prof})
	t.Cleanup(b.Close)
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 4000})
	page := w.ActiveTab().Navigate(doc)
	origin := dsp
	if sameOrigin {
		origin = pub
	}
	frame := doc.Root().AttachIframe(origin, geom.Rect{X: 100, Y: 100, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	store := beacon.NewStore()
	rec := beacon.Record(store)
	rt := NewRuntime(page, creative, store, Impression{
		ID: "imp-7", CampaignID: "camp-3",
		Meta: beacon.Meta{OS: "Android", SiteType: "app"},
	})
	return &env{clock: clock, browser: b, page: page, creative: creative, store: store, rec: rec, rt: rt}
}

func chromeProfile() browser.Profile { return browser.CertificationProfiles()[1] }

func TestRuntimeBasics(t *testing.T) {
	e := newEnv(t, chromeProfile(), false)
	if e.rt.Impression().ID != "imp-7" {
		t.Error("impression accessor wrong")
	}
	if e.rt.CreativeSize() != (geom.Size{W: 300, H: 250}) {
		t.Errorf("CreativeSize = %v", e.rt.CreativeSize())
	}
	e.clock.Advance(3 * time.Second)
	if e.rt.Now() != 3*time.Second {
		t.Errorf("Now = %v", e.rt.Now())
	}
	if e.rt.String() == "" {
		t.Error("String empty")
	}
	if e.rt.Profile().Name != chromeProfile().Name {
		t.Error("Profile accessor wrong")
	}
}

func TestTimers(t *testing.T) {
	e := newEnv(t, chromeProfile(), false)
	var once, ticks int
	e.rt.AfterFunc(time.Second, func() { once++ })
	e.rt.Every(time.Second, func() { ticks++ })
	e.clock.Advance(3500 * time.Millisecond)
	if once != 1 || ticks != 3 {
		t.Errorf("once=%d ticks=%d", once, ticks)
	}
}

func TestCreatePixelClampsToCreative(t *testing.T) {
	e := newEnv(t, chromeProfile(), false)
	px := e.rt.CreatePixel(geom.Point{X: 300, Y: 250}) // bottom-right corner
	r := px.Rect()
	if r.MaxX() > 300 || r.MaxY() > 250 {
		t.Errorf("pixel rect %v exceeds the creative box", r)
	}
	inner := e.rt.CreatePixel(geom.Point{X: 10, Y: 20})
	if inner.Rect() != (geom.Rect{X: 10, Y: 20, W: 1, H: 1}) {
		t.Errorf("inner pixel rect = %v", inner.Rect())
	}
}

func TestObservePixelPaints(t *testing.T) {
	e := newEnv(t, chromeProfile(), false)
	px := e.rt.CreatePixel(geom.Point{X: 150, Y: 125})
	var n int
	if _, err := e.rt.ObservePixelPaints(px, func(time.Duration) { n++ }); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(time.Second)
	if n < 55 || n > 65 {
		t.Errorf("paint count = %d, want ~60", n)
	}
}

func TestObservePixelPaintsUnsupported(t *testing.T) {
	prof := chromeProfile()
	prof.SupportsFrameCallbacks = false
	e := newEnv(t, prof, false)
	px := e.rt.CreatePixel(geom.Point{X: 150, Y: 125})
	if _, err := e.rt.ObservePixelPaints(px, func(time.Duration) {}); !errors.Is(err, ErrNoFrameCallbacks) {
		t.Errorf("err = %v, want ErrNoFrameCallbacks", err)
	}
}

func TestSendBeaconFillsIdentity(t *testing.T) {
	e := newEnv(t, chromeProfile(), false)
	e.clock.Advance(2 * time.Second)
	if err := e.rt.SendBeacon(beacon.SourceQTag, beacon.EventLoaded, 0); err != nil {
		t.Fatal(err)
	}
	events := e.rec.Events()
	if len(events) != 1 {
		t.Fatalf("store has %d events", len(events))
	}
	ev := events[0]
	if ev.ImpressionID != "imp-7" || ev.CampaignID != "camp-3" {
		t.Errorf("identity not filled: %+v", ev)
	}
	if ev.Meta.OS != "Android" || ev.Meta.SiteType != "app" {
		t.Errorf("meta not copied: %+v", ev.Meta)
	}
	if !ev.At.Equal(simclock.Epoch.Add(2 * time.Second)) {
		t.Errorf("timestamp = %v", ev.At)
	}
}

func TestGeometryAPISOPGuard(t *testing.T) {
	cross := newEnv(t, chromeProfile(), false)
	if _, err := cross.rt.BoundingRectInTop(); !errors.Is(err, dom.ErrCrossOrigin) {
		t.Errorf("cross-origin BoundingRectInTop err = %v", err)
	}
	if _, err := cross.rt.ViewportInfo(); !errors.Is(err, dom.ErrCrossOrigin) {
		t.Errorf("cross-origin ViewportInfo err = %v", err)
	}

	same := newEnv(t, chromeProfile(), true)
	r, err := same.rt.BoundingRectInTop()
	if err != nil {
		t.Fatalf("same-origin geometry should work: %v", err)
	}
	if r != (geom.Rect{X: 100, Y: 100, W: 300, H: 250}) {
		t.Errorf("rect = %v", r)
	}
	vp, err := same.rt.ViewportInfo()
	if err != nil || vp != (geom.Rect{X: 0, Y: 0, W: 1280, H: 720}) {
		t.Errorf("viewport = %v, err = %v", vp, err)
	}
}

func TestIntersectionRatio(t *testing.T) {
	e := newEnv(t, chromeProfile(), false) // Chrome has IntersectionObserver
	frac, err := e.rt.IntersectionRatio()
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 {
		t.Errorf("fully visible creative ratio = %v", frac)
	}
	e.page.ScrollTo(geom.Point{Y: 225}) // half the ad above the viewport top
	frac, _ = e.rt.IntersectionRatio()
	if frac != 0.5 {
		t.Errorf("half-cut ratio = %v", frac)
	}

	prof := chromeProfile()
	prof.SupportsIntersectionObserver = false
	old := newEnv(t, prof, false)
	if _, err := old.rt.IntersectionRatio(); !errors.Is(err, ErrNoIntersectionObserver) {
		t.Errorf("err = %v, want ErrNoIntersectionObserver", err)
	}
}

func TestPageHidden(t *testing.T) {
	e := newEnv(t, chromeProfile(), false)
	if e.rt.PageHidden() {
		t.Error("active tab should not be hidden")
	}
	w := e.page.Tab().Window()
	w.ActivateTab(w.NewTab())
	if !e.rt.PageHidden() {
		t.Error("background tab should be hidden")
	}
	// Page Visibility does NOT know about occlusion.
	w.ActivateTab(e.page.Tab())
	w.SetObscured(true)
	if e.rt.PageHidden() {
		t.Error("occlusion must be invisible to the Page Visibility API")
	}
}

func TestClose(t *testing.T) {
	e := newEnv(t, chromeProfile(), false)
	px := e.rt.CreatePixel(geom.Point{X: 150, Y: 125})
	var paints, ticks int
	e.rt.ObservePixelPaints(px, func(time.Duration) { paints++ })
	e.rt.Every(100*time.Millisecond, func() { ticks++ })
	e.clock.Advance(500 * time.Millisecond)
	p0, t0 := paints, ticks
	e.rt.Close()
	e.rt.Close() // double close safe
	e.clock.Advance(time.Second)
	if paints != p0 || ticks != t0 {
		t.Errorf("closed runtime still active: paints %d→%d ticks %d→%d", p0, paints, t0, ticks)
	}
}
