// Package viewability encodes the IAB/MRC viewable-ad-impression standard
// that Q-Tag measures against.
//
// The standard (MRC Viewable Ad Impression Measurement Guidelines, June
// 2014) defines an impression as *viewed* when a minimum fraction of the
// creative's pixels is exposed in the user's viewport for a minimum
// continuous duration:
//
//   - display ads:        ≥ 50 % of pixels for ≥ 1 second
//   - large display ads:  ≥ 30 % of pixels for ≥ 1 second
//     (creatives of 242 500 px² — e.g. 970×250 — or larger)
//   - video ads:          ≥ 50 % of pixels for ≥ 2 seconds
//
// The package also classifies a creative size into its format, which is
// what lets a single tag "identify the type of ad … and measure the
// specific conditions defined by the standard for each type" (§3).
package viewability

import (
	"fmt"
	"slices"
	"time"

	"qtag/internal/geom"
)

// Format is the ad format taxonomy used by the standard.
type Format int

const (
	// Display is a standard banner creative.
	Display Format = iota
	// LargeDisplay is a display creative of at least LargeDisplayMinArea
	// square pixels, measured against a relaxed 30 % area threshold.
	LargeDisplay
	// Video is an in-stream or out-stream video creative.
	Video
)

// LargeDisplayMinArea is the pixel area at or above which a display
// creative is treated as "large display" (970×250 = 242 500 px², per the
// MRC guidelines).
const LargeDisplayMinArea = 242500.0

// String implements fmt.Stringer: the name beacons carry in Meta.Format.
func (f Format) String() string {
	if f < 0 || int(f) >= len(standard) {
		return fmt.Sprintf("Format(%d)", int(f))
	}
	return standard[f].name
}

// NumFormats is how many formats the standard names.
const NumFormats = int(Video) + 1

// FormatNamed returns the format a beacon's Meta.Format names: "display",
// "large-display" or "video"; any other name, "" included, is display.
func FormatNamed(name string) Format {
	i := slices.IndexFunc(standard[:], func(s standardEntry) bool { return s.name == name })
	return max(Format(i), Display)
}

// Criteria is the pair of conditions an impression must hold to be viewed:
// at least AreaFraction of the creative's pixels visible continuously for
// at least Dwell.
type Criteria struct {
	// AreaFraction is the minimum visible fraction of the creative's
	// pixels, in (0, 1].
	AreaFraction float64
	// Dwell is the minimum continuous duration the area condition must
	// hold.
	Dwell time.Duration
}

// String implements fmt.Stringer.
func (c Criteria) String() string {
	return fmt.Sprintf("≥%.0f%% for ≥%v", c.AreaFraction*100, c.Dwell)
}

// standardEntry is a format's name and criteria.
type standardEntry struct {
	name string
	Criteria
}

// standard is the MRC criteria table, by format: the one place they are
// written. The collector reads it through StandardCriteria and
// FormatNamed; GenerateJS renders it into the deployed tag.
var standard = [NumFormats]standardEntry{
	Display:      {"display", Criteria{AreaFraction: 0.50, Dwell: 1 * time.Second}},
	LargeDisplay: {"large-display", Criteria{AreaFraction: 0.30, Dwell: 1 * time.Second}},
	Video:        {"video", Criteria{AreaFraction: 0.50, Dwell: 2 * time.Second}},
}

// StandardCriteria returns the IAB/MRC criteria for the given format; a
// format the standard does not name gets display's.
func StandardCriteria(f Format) Criteria {
	if f < 0 || int(f) >= len(standard) {
		f = Display
	}
	return standard[f].Criteria
}

// ClassifySize returns the format of a creative given its size and whether
// it carries video content. Video always classifies as Video; display
// creatives at or above LargeDisplayMinArea classify as LargeDisplay.
func ClassifySize(size geom.Size, isVideo bool) Format {
	if isVideo {
		return Video
	}
	if size.W*size.H >= LargeDisplayMinArea {
		return LargeDisplay
	}
	return Display
}

// CriteriaForSize is a convenience combining ClassifySize and
// StandardCriteria.
func CriteriaForSize(size geom.Size, isVideo bool) Criteria {
	return StandardCriteria(ClassifySize(size, isVideo))
}

// Oracle tracks ground-truth viewability from exact visible-fraction
// samples. The simulator uses it as the reference answer certification
// tests compare a measurement solution against: feed it the true visible
// fraction at each instant and it reports whether the standard's criteria
// have been met.
//
// Samples must be fed in non-decreasing time order; the fraction supplied
// at time t is assumed to hold until the next sample.
type Oracle struct {
	criteria Criteria

	lastTime    time.Duration
	lastVisible bool
	runStart    time.Duration
	haveSample  bool
	viewed      bool
	viewedAt    time.Duration
}

// NewOracle returns a ground-truth tracker for the given criteria.
func NewOracle(c Criteria) *Oracle {
	return &Oracle{criteria: c}
}

// Criteria returns the criteria the oracle evaluates.
func (o *Oracle) Criteria() Criteria { return o.criteria }

// Observe records that the creative's true visible fraction is frac from
// virtual time t onward. Out-of-order samples panic: the oracle is a
// measurement reference and silent reordering would corrupt it.
func (o *Oracle) Observe(t time.Duration, frac float64) {
	if o.haveSample && t < o.lastTime {
		panic(fmt.Sprintf("viewability: Observe out of order (%v after %v)", t, o.lastTime))
	}
	visible := frac >= o.criteria.AreaFraction
	if o.haveSample && o.lastVisible && !o.viewed {
		// Close the running visible interval [runStart, t).
		if t-o.runStart >= o.criteria.Dwell {
			o.viewed = true
			o.viewedAt = o.runStart + o.criteria.Dwell
		}
	}
	if visible && (!o.haveSample || !o.lastVisible) {
		o.runStart = t
	}
	o.lastTime = t
	o.lastVisible = visible
	o.haveSample = true
	// An instantly satisfied dwell (Dwell == 0) counts immediately.
	if visible && !o.viewed && o.criteria.Dwell == 0 {
		o.viewed = true
		o.viewedAt = t
	}
}

// FinishAt closes the observation window at time t and reports whether the
// impression met the criteria.
func (o *Oracle) FinishAt(t time.Duration) bool {
	if o.haveSample {
		o.Observe(t, boolToFrac(false))
	}
	return o.viewed
}

// Viewed reports whether the criteria have been met so far.
func (o *Oracle) Viewed() bool { return o.viewed }

// ViewedAt returns the virtual time at which the criteria were first met;
// valid only when Viewed is true.
func (o *Oracle) ViewedAt() time.Duration { return o.viewedAt }

func boolToFrac(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
