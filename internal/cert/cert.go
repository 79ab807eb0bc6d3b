// Package cert replicates the ABC/JICWEBS viewability certification tests
// the paper uses to validate Q-Tag (§4.2, Table 1), plus the additional
// §4.3 analyses (random placement accuracy, mobile in-app ads, ad
// blockers, privacy-enhanced browsers).
//
// The certification matrix is 7 test types × 2 ad formats (desktop banner
// and desktop video) × 6 browser–OS profiles. Six test types run
// automated (500 repetitions each in the paper); test 6 (window obscured
// by another application) cannot be automated and runs manually (10
// repetitions). The automation layer (package webdriver) reproduces the
// paper's Selenium artifact: a fraction of automated runs of the two
// "racy" test types (4: window moved off-screen, 5: page scrolled)
// register no events at all.
package cert

import (
	"fmt"
	"time"

	"qtag/internal/adtag"
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/qtag"
	"qtag/internal/simclock"
	"qtag/internal/simrand"
	"qtag/internal/viewability"
	"qtag/internal/webdriver"
)

// TestType enumerates the seven ABC certification tests of Table 1.
type TestType int

// The Table 1 tests.
const (
	// TestCrossDomainIframes (1): ad served within multiple cross-domain
	// iframes, meeting the viewability criteria.
	TestCrossDomainIframes TestType = iota + 1
	// TestBrowserResized (2): the browser is enlarged; the ad is always
	// in view.
	TestBrowserResized
	// TestOutOfFocus (3): the site loses focus but stays in view.
	TestOutOfFocus
	// TestWindowOffScreen (4): the window is moved off-screen after the
	// criteria are met.
	TestWindowOffScreen
	// TestPageScrolled (5): the page is scrolled after the criteria are
	// met.
	TestPageScrolled
	// TestWindowObscured (6): another application covers the browser
	// after the criteria are met. Manual-only.
	TestWindowObscured
	// TestTabObscured (7): the user switches to another tab after the
	// criteria are met.
	TestTabObscured
)

// AllTests returns the seven tests in Table 1 order.
func AllTests() []TestType {
	return []TestType{
		TestCrossDomainIframes, TestBrowserResized, TestOutOfFocus,
		TestWindowOffScreen, TestPageScrolled, TestWindowObscured, TestTabObscured,
	}
}

// Description returns the Table 1 description of the test.
func (t TestType) Description() string {
	switch t {
	case TestCrossDomainIframes:
		return "Ad served within multiple cross-domain iframes meeting the viewability standard criteria"
	case TestBrowserResized:
		return "The browser page is enlarged so that the ad is always in-view"
	case TestOutOfFocus:
		return "The site with the ad becomes out of focus but it is always in-view"
	case TestWindowOffScreen:
		return "The browser including an ad-space is moved off-screen after meeting the viewability criteria"
	case TestPageScrolled:
		return "The browser page including an ad-space is scrolled after the ad impression meets the viewability criteria"
	case TestWindowObscured:
		return "The user opens another app and the ad passes to background after it meets the viewability criteria"
	case TestTabObscured:
		return "The user switches to a new tab within the same browser after the ad impression meets the viewability criteria"
	default:
		return fmt.Sprintf("unknown test %d", int(t))
	}
}

// ExpectsOutOfView reports whether the correct result includes an
// out-of-view event (tests 4–7) in addition to the in-view event.
func (t TestType) ExpectsOutOfView() bool { return t >= TestWindowOffScreen }

// Manual reports whether the test cannot be automated (test 6).
func (t TestType) Manual() bool { return t == TestWindowObscured }

// Format is a certification ad format.
type Format int

// Formats certified by ABC.
const (
	// FormatBanner is a 300×250 desktop display banner.
	FormatBanner Format = iota
	// FormatVideo is a 640×360 desktop video ad.
	FormatVideo
)

// String implements fmt.Stringer.
func (f Format) String() string {
	if f == FormatVideo {
		return "video"
	}
	return "banner"
}

// Size returns the creative size for the format.
func (f Format) Size() geom.Size {
	if f == FormatVideo {
		return geom.Size{W: 640, H: 360}
	}
	return geom.Size{W: 300, H: 250}
}

// standard returns the format of the viewability standard f is.
func (f Format) standard() viewability.Format {
	if f == FormatVideo {
		return viewability.Video
	}
	return viewability.Display
}

// Outcome records which events a run registered.
type Outcome struct {
	// Deployed reports whether the tag attached to the session at all.
	Deployed bool
	// InView reports an in-view event.
	InView bool
	// OutOfView reports an out-of-view event.
	OutOfView bool
	// Flaked reports that the automation race suppressed the session.
	Flaked bool
}

// RunResult is one certification run.
type RunResult struct {
	Test    TestType
	Format  Format
	Profile string
	Outcome Outcome
	// Pass reports whether the outcome matches Table 1's correct result.
	Pass bool
}

// Runner executes certification scenarios.
type Runner struct {
	// Automated selects WebDriver execution (with its race) over manual
	// execution.
	Automated bool
	// FlakeProbability overrides the automation race probability
	// (defaults to webdriver.DefaultFlakeProbability).
	FlakeProbability float64
	// RNG drives the flake draws; nil disables flaking.
	RNG *simrand.RNG
	// TagConfig overrides Q-Tag's configuration (zero value = paper
	// defaults). Used by the fps-threshold ablation.
	TagConfig qtag.Config
}

const (
	pubOrigin      = dom.Origin("https://testing-website.example")
	exchangeOrigin = dom.Origin("https://exchange.example")
	dspOrigin      = dom.Origin("https://dsp.example")
)

// Run executes one certification scenario and judges it against Table 1.
func (r *Runner) Run(test TestType, format Format, prof browser.Profile) RunResult {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: prof})
	defer b.Close()

	// Initial window: on-screen, comfortably inside a 1920×1080 desktop.
	w := b.OpenWindow(geom.Point{X: 100, Y: 100}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pubOrigin, geom.Size{W: 1280, H: 6000})
	page := w.ActiveTab().Navigate(doc)

	// The paper's setup: the creative inside two cross-domain iframes.
	size := format.Size()
	adPos := geom.Point{X: 200, Y: 150}
	outer := doc.Root().AttachIframe(exchangeOrigin, geom.Rect{X: adPos.X, Y: adPos.Y, W: size.W, H: size.H})
	inner := outer.Root().AttachIframe(dspOrigin, geom.Rect{X: 0, Y: 0, W: size.W, H: size.H})
	creative := inner.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: size.W, H: size.H})

	dwell := viewability.StandardCriteria(format.standard()).Dwell
	actAt := dwell + 700*time.Millisecond // after the criteria are met
	total := dwell + 2500*time.Millisecond

	script := buildScript(test, page, w, actAt)
	driver := webdriver.New(clock, r.RNG, r.Automated)
	if r.FlakeProbability > 0 {
		driver.FlakeProbability = r.FlakeProbability
	}
	flaked := driver.SessionFlakes(script)

	store := beacon.NewStore()
	agg := aggregate.Attach(store, aggregate.Options{TTL: -1})
	var sink beacon.Sink = store
	if flaked {
		// The automation race wedged the tag injection: beacons go
		// nowhere because the tag never ran.
		sink = beacon.SinkFunc(func(beacon.Event) error { return nil })
	}
	rt := adtag.NewRuntime(page, creative, sink, adtag.Impression{
		ID: "cert", CampaignID: "cert", Format: format.standard(),
	})
	deployed := qtag.New(r.TagConfig).Deploy(rt) == nil && !flaked

	driver.Run(script, total)

	out := Outcome{
		Deployed:  deployed,
		InView:    agg.Totals().Viewed[beacon.SourceQTag] > 0,
		OutOfView: agg.DwellPairs() > 0,
		Flaked:    flaked,
	}
	pass := out.InView
	if test.ExpectsOutOfView() {
		pass = pass && out.OutOfView
	} else {
		pass = pass && !out.OutOfView
	}
	return RunResult{Test: test, Format: format, Profile: prof.Name, Outcome: out, Pass: pass}
}

// buildScript translates a Table 1 test into a driver script.
func buildScript(test TestType, page *browser.Page, w *browser.Window, actAt time.Duration) webdriver.Script {
	switch test {
	case TestBrowserResized:
		// Enlarge mid-dwell; the ad stays in view throughout.
		return webdriver.Script{{
			At: 400 * time.Millisecond, Kind: webdriver.KindResize,
			Do: func() { w.Resize(geom.Size{W: 1400, H: 900}) },
		}}
	case TestOutOfFocus:
		return webdriver.Script{{
			At: 300 * time.Millisecond, Kind: webdriver.KindBlur,
			Do: func() { w.Blur() },
		}}
	case TestWindowOffScreen:
		return webdriver.Script{{
			At: actAt, Kind: webdriver.KindMoveWindow,
			Do: func() { w.MoveTo(geom.Point{X: 4000, Y: 4000}) },
		}}
	case TestPageScrolled:
		return webdriver.Script{{
			At: actAt, Kind: webdriver.KindScroll,
			Do: func() { page.ScrollTo(geom.Point{Y: 3000}) },
		}}
	case TestWindowObscured:
		return webdriver.Script{{
			At: actAt, Kind: webdriver.KindObscure,
			Do: func() { w.SetObscured(true) },
		}}
	case TestTabObscured:
		return webdriver.Script{{
			At: actAt, Kind: webdriver.KindSwitchTab,
			Do: func() { w.ActivateTab(w.NewTab()) },
		}}
	default: // TestCrossDomainIframes: no interaction
		return webdriver.Script{}
	}
}
