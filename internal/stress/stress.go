// Package stress implements the randomized lab stress-testing the paper
// alludes to ("we have performed a thorough evaluation of our solution
// through stress tests in a lab environment", §1): it generates random
// adversarial browsing scenarios — scroll storms, window moves, resizes,
// tab switches, occlusion, CPU-load changes — runs Q-Tag through them,
// and differentially compares the tag's in-view verdict against a
// tolerance-bracketed ground-truth oracle.
//
// Because any sampled measurement has finite resolution (100 ms sampling
// windows, ±half-a-level area resolution), the checker brackets the truth
// with a strict oracle (tighter criteria) and a lenient oracle (looser
// criteria). When both agree the truth is robust and the tag must match;
// when they disagree the scenario is a borderline case that no
// fixed-resolution measurement can be expected to decide, and it is
// reported as such rather than judged. A correct tag produces zero
// mismatches on robust scenarios — asserted by the package tests over
// hundreds of random scenarios.
package stress

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
)

// Op is one kind of scripted browser abuse.
type Op int

// Scenario operations.
const (
	// OpScroll jumps the page scroll to a random offset.
	OpScroll Op = iota
	// OpResize resizes the window.
	OpResize
	// OpMoveWindow moves the window, possibly partially off-screen.
	OpMoveWindow
	// OpObscure toggles full occlusion by another application.
	OpObscure
	// OpTabAway switches to a background tab.
	OpTabAway
	// OpTabBack returns to the ad's tab.
	OpTabBack
	// OpCPULoad changes the device's CPU saturation (bounded so the
	// effective refresh rate stays above the tag's fps threshold — the
	// documented operating envelope of the technique).
	OpCPULoad
	// OpBlur removes window focus (must never affect measurement).
	OpBlur
	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpScroll:
		return "scroll"
	case OpResize:
		return "resize"
	case OpMoveWindow:
		return "move-window"
	case OpObscure:
		return "obscure"
	case OpTabAway:
		return "tab-away"
	case OpTabBack:
		return "tab-back"
	case OpCPULoad:
		return "cpu-load"
	case OpBlur:
		return "blur"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Step is one timed operation.
type Step struct {
	At time.Duration
	Op Op
	// A and B are op-specific parameters (scroll offset, window position,
	// size, load factor).
	A, B float64
}

// Scenario is a generated stress scenario.
type Scenario struct {
	Seed     uint64
	AdY      float64
	Video    bool
	Duration time.Duration
	Steps    []Step
}

// Generate draws a random scenario: an ad somewhere on a long page and
// 3–10 operations over 4–8 virtual seconds.
func Generate(rng *simrand.RNG) Scenario {
	sc := Scenario{
		AdY:      rng.Range(60, 3200),
		Video:    rng.Bool(0.25),
		Duration: time.Duration(rng.Range(4, 8) * float64(time.Second)),
	}
	steps := 3 + rng.Intn(8)
	for i := 0; i < steps; i++ {
		st := Step{
			At: time.Duration(rng.Range(0.1, 0.95) * float64(sc.Duration)),
			Op: Op(rng.Intn(int(numOps))),
		}
		switch st.Op {
		case OpScroll:
			st.A = rng.Range(0, 3500)
		case OpResize:
			st.A = rng.Range(700, 1600) // width
			st.B = rng.Range(500, 1000) // height
		case OpMoveWindow:
			st.A = rng.Range(-800, 1800)
			st.B = rng.Range(-500, 900)
		case OpObscure:
			st.A = float64(rng.Intn(2)) // 1 = obscure, 0 = reveal
		case OpCPULoad:
			// Stay inside the technique's envelope: ≤0.55 load keeps the
			// effective rate ≥27 fps, above the 20 fps threshold.
			st.A = rng.Range(0, 0.55)
		}
		sc.Steps = append(sc.Steps, st)
	}
	return sc
}

// Verdict classifies one differential run.
type Verdict int

// Verdicts.
const (
	// Agree: the tag matched a robust ground truth.
	Agree Verdict = iota
	// Borderline: the strict and lenient oracles disagree — the scenario
	// sits within measurement resolution of the criteria and is not
	// judged.
	Borderline
	// Mismatch: the tag contradicted a robust ground truth. A correct
	// implementation never produces these.
	Mismatch
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Agree:
		return "agree"
	case Borderline:
		return "borderline"
	default:
		return "MISMATCH"
	}
}

// RunResult is one scenario's differential outcome.
type RunResult struct {
	Scenario     Scenario
	TagInView    bool
	OracleStrict bool
	OracleNom    bool
	OracleLen    bool
	Verdict      Verdict
}

// Tolerances bracketing the nominal criteria (area in absolute fraction,
// dwell in wall time). They reflect the tag's resolution: one sampling
// window of dwell and half an X-layout level of area.
const (
	areaTolerance  = 0.06
	dwellTolerance = 250 * time.Millisecond
)

// Run executes one scenario differentially.
func Run(sc Scenario) RunResult {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: browser.CertificationProfiles()[1],
		Screen: geom.Size{W: 1920, H: 1080}})
	defer b.Close()
	w := b.OpenWindow(geom.Point{X: 100, Y: 80}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument("https://stress.example", geom.Size{W: 1280, H: 4000})
	page := w.ActiveTab().Navigate(doc)
	size := geom.Size{W: 300, H: 250}
	format := viewability.Display
	if sc.Video {
		size = geom.Size{W: 640, H: 360}
		format = viewability.Video
	}
	outer := doc.Root().AttachIframe("https://exchange.example",
		geom.Rect{X: 200, Y: sc.AdY, W: size.W, H: size.H})
	inner := outer.Root().AttachIframe("https://dsp.example",
		geom.Rect{X: 0, Y: 0, W: size.W, H: size.H})
	creative := inner.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: size.W, H: size.H})

	store := beacon.NewStore()
	agg := aggregate.Attach(store, aggregate.Options{TTL: -1})
	rt := adtag.NewRuntime(page, creative, store, adtag.Impression{
		ID: "stress", CampaignID: "stress", Format: format,
	})
	if err := qtag.New(qtag.Config{}).Deploy(rt); err != nil {
		panic(fmt.Sprintf("stress: deploy: %v", err))
	}

	nominal := viewability.StandardCriteria(format)
	strict := viewability.Criteria{
		AreaFraction: nominal.AreaFraction + areaTolerance,
		Dwell:        nominal.Dwell + dwellTolerance,
	}
	lenient := viewability.Criteria{
		AreaFraction: nominal.AreaFraction - areaTolerance,
		Dwell:        nominal.Dwell - dwellTolerance,
	}
	oracles := []*viewability.Oracle{
		viewability.NewOracle(strict),
		viewability.NewOracle(nominal),
		viewability.NewOracle(lenient),
	}
	sampler := clock.Every(20*time.Millisecond, func() {
		frac := page.TrueVisibleFraction(creative)
		for _, o := range oracles {
			o.Observe(clock.Now(), frac)
		}
	})

	var adTab = page.Tab()
	var otherTab *browser.Tab
	for _, st := range sc.Steps {
		st := st
		clock.AfterFunc(st.At, func() { applyStep(st, b, w, page, adTab, &otherTab) })
	}
	clock.Advance(sc.Duration)
	sampler.Stop()

	res := RunResult{
		Scenario:     sc,
		TagInView:    agg.Totals().Viewed[beacon.SourceQTag] > 0,
		OracleStrict: oracles[0].FinishAt(clock.Now()),
		OracleNom:    oracles[1].FinishAt(clock.Now()),
		OracleLen:    oracles[2].FinishAt(clock.Now()),
	}
	switch {
	case res.OracleStrict != res.OracleLen:
		res.Verdict = Borderline
	case res.TagInView == res.OracleNom:
		res.Verdict = Agree
	default:
		res.Verdict = Mismatch
	}
	return res
}

func applyStep(st Step, b *browser.Browser, w *browser.Window, page *browser.Page,
	adTab *browser.Tab, otherTab **browser.Tab) {
	switch st.Op {
	case OpScroll:
		page.ScrollTo(geom.Point{Y: st.A})
	case OpResize:
		w.Resize(geom.Size{W: st.A, H: st.B})
	case OpMoveWindow:
		w.MoveTo(geom.Point{X: st.A, Y: st.B})
	case OpObscure:
		w.SetObscured(st.A > 0.5)
	case OpTabAway:
		if *otherTab == nil {
			*otherTab = w.NewTab()
		}
		w.ActivateTab(*otherTab)
	case OpTabBack:
		w.ActivateTab(adTab)
	case OpCPULoad:
		b.SetCPULoad(st.A)
	case OpBlur:
		w.Blur()
	}
}

// BatchResult aggregates a batch of differential runs.
type BatchResult struct {
	Runs       int
	Agree      int
	Borderline int
	Mismatch   int
	// Mismatches retains the failing scenarios for diagnosis.
	Mismatches []RunResult
}

// String implements fmt.Stringer.
func (b BatchResult) String() string {
	return fmt.Sprintf("stress: %d runs — %d agree, %d borderline, %d mismatches",
		b.Runs, b.Agree, b.Borderline, b.Mismatch)
}

// RunBatch generates and runs n random scenarios.
func RunBatch(n int, seed uint64) BatchResult {
	rng := simrand.New(seed)
	out := BatchResult{Runs: n}
	for i := 0; i < n; i++ {
		sc := Generate(rng.Fork(fmt.Sprintf("scenario-%d", i)))
		sc.Seed = seed
		res := Run(sc)
		switch res.Verdict {
		case Agree:
			out.Agree++
		case Borderline:
			out.Borderline++
		default:
			out.Mismatch++
			out.Mismatches = append(out.Mismatches, res)
		}
	}
	return out
}
