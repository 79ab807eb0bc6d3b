package qtag

import (
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
	pubOrigin = dom.Origin("https://publisher.example")
	dspOrigin = dom.Origin("https://dsp.example")
)

// fixture is a deployed Q-Tag on a simulated page with a double
// cross-domain iframe ad, ready for scenario scripting.
type fixture struct {
	clock    *simclock.Clock
	browser  *browser.Browser
	page     *browser.Page
	creative *dom.Element
	store    *beacon.Store
	rec      *beacon.Recorder
	rt       *adtag.Runtime
}

func deployFixture(t *testing.T, prof browser.Profile, adY float64, format viewability.Format, cfg Config) *fixture {
	t.Helper()
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: prof})
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pubOrigin, geom.Size{W: 1280, H: 6000})
	page := w.ActiveTab().Navigate(doc)
	outer := doc.Root().AttachIframe(dspOrigin, geom.Rect{X: 200, Y: adY, W: 300, H: 250})
	inner := outer.Root().AttachIframe(dspOrigin, geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	creative := inner.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	store := beacon.NewStore()
	rec := beacon.Record(store)
	rt := adtag.NewRuntime(page, creative, store, adtag.Impression{
		ID: "imp-1", CampaignID: "camp-1", Format: format,
	})
	if err := New(cfg).Deploy(rt); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return &fixture{clock: clock, browser: b, page: page, creative: creative, store: store, rec: rec, rt: rt}
}

func (f *fixture) has(typ beacon.EventType) bool {
	for _, e := range f.rec.Events() {
		if e.Type == typ && e.Source == beacon.SourceQTag {
			return true
		}
	}
	return false
}

// sent counts the Q-Tag beacons of one type rec holds.
func sent(rec *beacon.Recorder, typ beacon.EventType) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Type == typ && e.Source == beacon.SourceQTag {
			n++
		}
	}
	return n
}

func (f *fixture) eventTime(typ beacon.EventType) (time.Duration, bool) {
	for _, e := range f.rec.Events() {
		if e.Type == typ && e.Source == beacon.SourceQTag {
			return e.At.Sub(simclock.Epoch), true
		}
	}
	return 0, false
}

func chrome() browser.Profile { return browser.CertificationProfiles()[1] }

func TestDeploySendsLoaded(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	if !f.has(beacon.EventLoaded) {
		t.Fatal("loaded beacon missing after deploy")
	}
	if sent(f.rec, beacon.EventLoaded) != 1 {
		t.Error("store should hold 1 loaded")
	}
}

func TestInViewAfterOneSecond(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(900 * time.Millisecond)
	if f.has(beacon.EventInView) {
		t.Fatal("in-view sent before 1s dwell")
	}
	f.clock.Advance(400 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Fatal("in-view not sent after 1.3s of full visibility")
	}
	at, _ := f.eventTime(beacon.EventInView)
	if at < 900*time.Millisecond || at > 1300*time.Millisecond {
		t.Errorf("in-view at %v, want ≈1s", at)
	}
	if f.has(beacon.EventOutOfView) {
		t.Error("out-of-view must not fire while still visible")
	}
}

func TestNoInViewBelowTheFold(t *testing.T) {
	f := deployFixture(t, chrome(), 3000, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(5 * time.Second)
	if !f.has(beacon.EventLoaded) {
		t.Error("loaded should still fire below the fold")
	}
	if f.has(beacon.EventInView) {
		t.Error("in-view must not fire for an ad below the fold")
	}
}

func TestInViewAfterScrollDown(t *testing.T) {
	f := deployFixture(t, chrome(), 3000, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(2 * time.Second)
	f.page.ScrollTo(geom.Point{Y: 2900})
	f.clock.Advance(1500 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Fatal("in-view should fire after scrolling the ad into view for 1.5s")
	}
	at, _ := f.eventTime(beacon.EventInView)
	if at < 2900*time.Millisecond || at > 3400*time.Millisecond {
		t.Errorf("in-view at %v, want ≈3.0–3.2s", at)
	}
}

func TestOutOfViewAfterScrollAway(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(1500 * time.Millisecond) // in-view fires ~1s
	if !f.has(beacon.EventInView) {
		t.Fatal("precondition: in-view")
	}
	f.page.ScrollTo(geom.Point{Y: 2000}) // ad leaves viewport
	f.clock.Advance(500 * time.Millisecond)
	if !f.has(beacon.EventOutOfView) {
		t.Fatal("out-of-view should fire after scrolling away")
	}
}

func TestShortExposureDoesNotCount(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(600 * time.Millisecond) // visible 0.6s
	f.page.ScrollTo(geom.Point{Y: 2000})    // hide before 1s
	f.clock.Advance(3 * time.Second)
	if f.has(beacon.EventInView) {
		t.Error("0.6s exposure must not trigger in-view")
	}
	if f.has(beacon.EventOutOfView) {
		t.Error("out-of-view only fires after an in-view")
	}
}

func TestInterruptedDwellRestarts(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(600 * time.Millisecond)
	f.page.ScrollTo(geom.Point{Y: 2000}) // interrupt
	f.clock.Advance(500 * time.Millisecond)
	f.page.ScrollTo(geom.Point{Y: 0}) // back
	f.clock.Advance(700 * time.Millisecond)
	if f.has(beacon.EventInView) {
		t.Error("dwell must restart after interruption")
	}
	f.clock.Advance(600 * time.Millisecond) // now >1s continuous
	if !f.has(beacon.EventInView) {
		t.Error("in-view should fire after uninterrupted second attempt")
	}
}

func TestHalfVisibleCountsForDisplay(t *testing.T) {
	// Scroll so exactly 52% of the ad is visible (display needs ≥50%).
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	// Ad spans y 100..350; viewport top at 220 leaves 130/250 = 52%.
	f.page.ScrollTo(geom.Point{Y: 220})
	f.clock.Advance(2 * time.Second)
	if !f.has(beacon.EventInView) {
		t.Error("52% visibility should satisfy the display criteria")
	}
}

func TestFortyPercentDoesNotCountForDisplay(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	// Viewport top at 250 leaves 100/250 = 40% visible.
	f.page.ScrollTo(geom.Point{Y: 250})
	f.clock.Advance(3 * time.Second)
	if f.has(beacon.EventInView) {
		t.Error("40% visibility must not satisfy the 50% display criteria")
	}
}

func TestVideoNeedsTwoSeconds(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Video, Config{})
	defer f.browser.Close()
	f.clock.Advance(1500 * time.Millisecond)
	if f.has(beacon.EventInView) {
		t.Error("video in-view before 2s")
	}
	f.clock.Advance(800 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Error("video in-view missing after 2.3s")
	}
}

func TestLargeDisplayRelaxedThreshold(t *testing.T) {
	// 40% visible satisfies large display (≥30%) but not display (≥50%).
	f := deployFixture(t, chrome(), 100, viewability.LargeDisplay, Config{})
	defer f.browser.Close()
	f.page.ScrollTo(geom.Point{Y: 250}) // 40% visible
	f.clock.Advance(2 * time.Second)
	if !f.has(beacon.EventInView) {
		t.Error("40% should satisfy the large-display 30% bar")
	}
}

func TestTabSwitchTriggersOutOfView(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(1500 * time.Millisecond)
	w := f.page.Tab().Window()
	w.ActivateTab(w.NewTab())
	f.clock.Advance(500 * time.Millisecond)
	if !f.has(beacon.EventOutOfView) {
		t.Error("tab switch should trigger out-of-view after in-view")
	}
}

func TestDegradedCPUStillMeasures(t *testing.T) {
	// 50% CPU load → 30 fps, still above the 20 fps threshold.
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.browser.SetCPULoad(0.5)
	f.clock.Advance(2 * time.Second)
	if !f.has(beacon.EventInView) {
		t.Error("30fps device should still measure in-view with the 20fps threshold")
	}
}

func TestThresholdInsensitivity(t *testing.T) {
	// Paper §3: thresholds of 20/30/40/50 fps make no major difference on
	// healthy devices.
	for _, thr := range []float64{20, 30, 40, 50} {
		f := deployFixture(t, chrome(), 100, viewability.Display, Config{FPSThreshold: thr})
		f.clock.Advance(2 * time.Second)
		if !f.has(beacon.EventInView) {
			t.Errorf("threshold %v: in-view missing", thr)
		}
		f.browser.Close()
	}
}

func TestNoFrameCallbacksFailsDeploy(t *testing.T) {
	prof := chrome()
	prof.SupportsFrameCallbacks = false
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: prof})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pubOrigin, geom.Size{W: 1280, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe(dspOrigin, geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 300, H: 250})
	store := beacon.NewStore()
	rec := beacon.Record(store)
	rt := adtag.NewRuntime(page, creative, store, adtag.Impression{ID: "i", CampaignID: "c"})
	if err := New(Config{}).Deploy(rt); err == nil {
		t.Fatal("Deploy should fail without frame callbacks")
	}
	if sent(rec, beacon.EventLoaded) != 0 {
		t.Error("no loaded beacon may be sent when deployment fails")
	}
}

func TestInViewSentExactlyOnce(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(5 * time.Second)
	count := 0
	for _, e := range f.rec.Events() {
		if e.Type == beacon.EventInView {
			count++
		}
	}
	if count != 1 {
		t.Errorf("in-view sent %d times, want exactly 1", count)
	}
}

func TestTagStopsAfterOutOfView(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(1500 * time.Millisecond)
	f.page.ScrollTo(geom.Point{Y: 2000})
	f.clock.Advance(500 * time.Millisecond)
	events := f.store.Len()
	// Bring the ad back: measurement is complete, nothing new may fire.
	f.page.ScrollTo(geom.Point{Y: 0})
	f.clock.Advance(3 * time.Second)
	if f.store.Len() != events {
		t.Errorf("tag emitted %d extra events after completing its measurement", f.store.Len()-events)
	}
}

func TestCriteriaOverride(t *testing.T) {
	crit := viewability.Criteria{AreaFraction: 0.9, Dwell: 3 * time.Second}
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{Criteria: &crit})
	defer f.browser.Close()
	f.clock.Advance(2 * time.Second)
	if f.has(beacon.EventInView) {
		t.Error("override dwell of 3s not honoured")
	}
	f.clock.Advance(1500 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Error("in-view missing after override dwell elapsed")
	}
}

func TestTagName(t *testing.T) {
	if New(Config{}).Name() != "qtag" {
		t.Error("tag name wrong")
	}
}

func TestEstimateVisibleFractionHelper(t *testing.T) {
	got := EstimateVisibleFraction(Config{}, geom.Size{W: 300, H: 250},
		geom.Rect{X: -1, Y: -1, W: 302, H: 252})
	if got != 1 {
		t.Errorf("full clip fraction = %v", got)
	}
}

func BenchmarkTagSecondOfMeasurement(b *testing.B) {
	clock := simclock.New()
	br := browser.New(clock, browser.Options{Profile: browser.CertificationProfiles()[1]})
	defer br.Close()
	w := br.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pubOrigin, geom.Size{W: 1280, H: 6000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe(dspOrigin, geom.Rect{X: 200, Y: 100, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 300, H: 250})
	store := beacon.NewStore()
	rt := adtag.NewRuntime(page, creative, store, adtag.Impression{ID: "i", CampaignID: "c"})
	if err := New(Config{}).Deploy(rt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(time.Second)
	}
}

// TestFlickerAtSampleBoundaries: visibility flapping faster than the
// dwell must never produce an in-view, even when flips align with sample
// boundaries.
func TestFlickerAtSampleBoundaries(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	for i := 0; i < 12; i++ {
		f.clock.Advance(400 * time.Millisecond)
		if i%2 == 0 {
			f.page.ScrollTo(geom.Point{Y: 2000}) // hide
		} else {
			f.page.ScrollTo(geom.Point{Y: 0}) // show
		}
	}
	if f.has(beacon.EventInView) {
		t.Error("400ms flicker must never satisfy the 1s dwell")
	}
}

// TestWindowMoveAfterInView mirrors certification test 4 at the tag
// level: in-view latches, then moving the window off-screen produces
// out-of-view.
func TestWindowMoveAfterInView(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(1500 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Fatal("precondition failed")
	}
	f.page.Tab().Window().MoveTo(geom.Point{X: 9000, Y: 9000})
	f.clock.Advance(500 * time.Millisecond)
	if !f.has(beacon.EventOutOfView) {
		t.Error("off-screen move should register out-of-view")
	}
}

// TestSmallBannerMeasured: the 320×50 banner of the §5 campaigns works
// with the default 25-pixel layout.
func TestSmallBannerMeasured(t *testing.T) {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: browser.AndroidChromeProfile()})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 412, H: 800})
	doc := dom.NewDocument(pubOrigin, geom.Size{W: 412, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe(dspOrigin, geom.Rect{X: 46, Y: 100, W: 320, H: 50})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 320, H: 50})
	store := beacon.NewStore()
	rec := beacon.Record(store)
	rt := adtag.NewRuntime(page, creative, store, adtag.Impression{
		ID: "i", CampaignID: "c", Format: viewability.Display,
	})
	if err := New(Config{}).Deploy(rt); err != nil {
		t.Fatal(err)
	}
	clock.Advance(1500 * time.Millisecond)
	if sent(rec, beacon.EventInView) != 1 {
		t.Error("320x50 banner in-view missing")
	}
}

// TestAlternativeLayoutsAlsoMeasure: the dice and + layouts, while less
// accurate, still drive the state machine correctly for a fully visible
// ad.
func TestAlternativeLayoutsAlsoMeasure(t *testing.T) {
	for _, l := range []Layout{LayoutDice, LayoutPlus} {
		f := deployFixture(t, chrome(), 100, viewability.Display, Config{Layout: l})
		f.clock.Advance(1500 * time.Millisecond)
		if !f.has(beacon.EventInView) {
			t.Errorf("layout %v: in-view missing", l)
		}
		f.browser.Close()
	}
}

// TestNinePixelConfig: the smallest Figure 2 configuration still works
// end to end.
func TestNinePixelConfig(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{PixelCount: 9})
	defer f.browser.Close()
	f.clock.Advance(1500 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Error("9-pixel config in-view missing")
	}
}

// TestResponsiveCreativeResize: when the creative box changes size
// mid-measurement (responsive ads), the tag re-plants its pixel grid and
// keeps measuring the new geometry instead of reading clipped stale
// pixels as out-of-view.
func TestResponsiveCreativeResize(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(400 * time.Millisecond) // mid-dwell

	// The publisher swaps the slot to a 320x50 banner: resize the iframe
	// chain and the creative.
	inner := f.creative.Document()
	outerFrame := f.creative.FrameChain()[0]
	innerFrame := f.creative.FrameChain()[1]
	outerFrame.SetRect(geom.Rect{X: 200, Y: 100, W: 320, H: 50})
	innerFrame.SetRect(geom.Rect{X: 0, Y: 0, W: 320, H: 50})
	f.creative.SetRect(geom.Rect{X: 0, Y: 0, W: 320, H: 50})
	_ = inner
	f.browser.InvalidateLayout()

	// The resized (still fully visible) creative must reach in-view: the
	// dwell restarts at the relayout, so allow a bit over 1s.
	f.clock.Advance(1600 * time.Millisecond)
	if !f.has(beacon.EventInView) {
		t.Fatal("in-view missing after responsive resize")
	}
	// And visibility loss on the new geometry still registers.
	f.page.ScrollTo(geom.Point{Y: 2000})
	f.clock.Advance(500 * time.Millisecond)
	if !f.has(beacon.EventOutOfView) {
		t.Error("out-of-view missing after resize + scroll")
	}
}

// TestShrinkWithoutReplantWouldMisread documents why replanting matters:
// after a shrink the retired grid is hidden and a fresh in-bounds grid
// measures the new box — the count of active monitoring pixels stays
// constant.
func TestShrinkKeepsPixelBudget(t *testing.T) {
	f := deployFixture(t, chrome(), 100, viewability.Display, Config{})
	defer f.browser.Close()
	f.clock.Advance(300 * time.Millisecond)
	f.creative.SetRect(geom.Rect{X: 0, Y: 0, W: 200, H: 150})
	f.browser.InvalidateLayout()
	f.clock.Advance(300 * time.Millisecond) // replant happens on next sample

	active := 0
	f.creative.Walk(func(e *dom.Element) bool {
		if e.Tag() == "monitor-pixel" && !e.Hidden() {
			r := e.Rect()
			if r.MaxX() > 200 || r.MaxY() > 150 {
				t.Errorf("active pixel outside the shrunken creative: %v", r)
			}
			active++
		}
		return true
	})
	if active != DefaultPixelCount {
		t.Errorf("active pixels = %d, want %d", active, DefaultPixelCount)
	}
}
