// Package qtag is the public API of the Q-Tag viewability measurement
// library — a faithful Go reproduction of "Q-Tag: A transparent solution
// to measure ads viewability rate in online advertising campaigns"
// (Callejo, Pastor, Cuevas & Cuevas, CoNEXT 2019).
//
// The library has three faces:
//
//   - The measurement technique itself: a Q-Tag ad tag that infers an ad
//     creative's visibility from the refresh rate of monitoring pixels
//     planted inside its (cross-origin) iframe, evaluates the IAB/MRC
//     viewability standard, and beacons in-view / out-of-view events to a
//     monitoring server. See NewTag and the Tag/Runtime types.
//
//   - The monitoring side a DSP deploys: an idempotent event store, the
//     aggregator that counts its impressions, and an HTTP collection API
//     with the read routes over those counts. See NewCollector,
//     NewCollectionServer and HTTPSink.
//
//   - The evaluation harness that reproduces every table and figure of
//     the paper on a deterministic browser/DSP simulator: the Figure 2
//     layout sweep (LayoutSweep), the Table 1 certification suite
//     (RunCertification), the Figure 3 / Table 2 production comparison
//     (RunProductionSim, Figure3, Table2) and the §6.1 revenue model
//     (RevenueUplift).
//
// Everything is pure standard library; all simulation is deterministic
// given a seed. See DESIGN.md for the architecture and EXPERIMENTS.md
// for the paper-vs-reproduction numbers.
package qtag

import (
	"qtag/internal/adtag"
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/cert"
	"qtag/internal/commercial"
	"qtag/internal/detect"
	"qtag/internal/economics"
	"qtag/internal/layouteval"
	"qtag/internal/qtag"
	"qtag/internal/report"
	"qtag/internal/stress"
	"qtag/internal/viewability"
)

// ---- The measurement technique -------------------------------------------

// TagConfig tunes a Q-Tag instance; its zero value selects the paper's
// defaults (25-pixel X layout, 20 fps visibility threshold, 100 ms
// sampling, rectangle-inference area estimation).
type TagConfig = qtag.Config

// Layout is a monitoring-pixel arrangement (X, dice or +).
type Layout = qtag.Layout

// Pixel layouts compared in the paper's Figure 2.
const (
	LayoutX    = qtag.LayoutX
	LayoutDice = qtag.LayoutDice
	LayoutPlus = qtag.LayoutPlus
)

// Tag is a deployable measurement script (Q-Tag or a baseline).
type Tag = adtag.Tag

// Runtime is the capability surface a tag executes against inside a
// creative iframe: timers, pixel paint observation, beacon transport and
// SOP-guarded geometry.
type Runtime = adtag.Runtime

// Impression identifies the ad impression a tag instance measures.
type Impression = adtag.Impression

// NewTag returns a Q-Tag measurement tag.
func NewTag(cfg TagConfig) Tag { return qtag.New(cfg) }

// NewCommercialTag returns the geometry-API-based baseline verifier the
// paper compares against.
func NewCommercialTag() Tag { return commercial.New(commercial.Config{}) }

// NewRuntime wires a tag runtime to a creative element on a simulated
// page; see the examples/ directory for full setups.
var NewRuntime = adtag.NewRuntime

// ---- The viewability standard --------------------------------------------

// Criteria is an IAB/MRC viewability condition (minimum visible area
// fraction held for a minimum continuous duration).
type Criteria = viewability.Criteria

// Format is the standard's ad-format taxonomy.
type Format = viewability.Format

// Ad formats with distinct standard criteria.
const (
	Display      = viewability.Display
	LargeDisplay = viewability.LargeDisplay
	Video        = viewability.Video
)

// StandardCriteria returns the IAB/MRC criteria for a format: display
// ≥50 %/1 s, large display ≥30 %/1 s, video ≥50 %/2 s.
var StandardCriteria = viewability.StandardCriteria

// ---- The monitoring server ------------------------------------------------

// Event is one beacon message (served / loaded / in-view / out-of-view).
type Event = beacon.Event

// Sink consumes beacon events.
type Sink = beacon.Sink

// Collector is the monitoring server's state: the idempotent in-memory
// event store, the aggregator that counts its impressions as qtag-server
// does, and a copy of every distinct event for Events. It is a Sink.
type Collector struct {
	*beacon.Store
	agg *aggregate.Aggregator
	rec *beacon.Recorder
}

// CollectionServer is the HTTP collection API over a Collector.
type CollectionServer = beacon.Server

// HTTPSink delivers tag beacons to a CollectionServer over HTTP.
type HTTPSink = beacon.HTTPSink

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	store := beacon.NewStore()
	agg := aggregate.Attach(store, aggregate.Options{TTL: -1})
	return &Collector{Store: store, agg: agg, rec: beacon.Record(store)}
}

// Events returns every distinct event the collector took, sorted by
// (campaign, impression, source, type, seq).
func (c *Collector) Events() []Event { return c.rec.Events() }

// Counts are impressions as the paper counts them: served, and per
// solution measured (a loaded beacon) and viewed (an in-view) — a
// second in-view cycle (Seq > 0) of one impression is not a second one.
type Counts = aggregate.Counts

// Counts returns the given campaigns' counts, every campaign's when none
// is given.
func (c *Collector) Counts(campaignIDs ...string) Counts { return c.agg.Totals(campaignIDs...) }

// NewCollectionServer wraps a collector with the HTTP API: POST
// /v1/events, GET /healthz, /readyz and /metrics, and the read route
// over its counts, GET /report, as qtag-server serves it (decode it into
// a Report).
func NewCollectionServer(c *Collector) *CollectionServer {
	srv := beacon.NewServer(c.Store)
	srv.Mount("GET /report", report.Handler(c.agg, nil))
	return srv
}

// Report is the GET /report payload: per campaign × format counts and
// rates, and the Table 2 site type × OS slices.
type Report = report.ViewabilityReport

// ---- Reproduction: Figure 2 (layout validation) ---------------------------

// LayoutSweepConfig parameterises the Figure 2 sweep.
type LayoutSweepConfig = layouteval.Config

// LayoutPoint is one point of a Figure 2 curve.
type LayoutPoint = layouteval.Point

// LayoutSweep computes the theoretical area-estimation error for every
// layout × pixel count × sliding scenario (Figure 2).
var LayoutSweep = layouteval.Sweep

// ---- Reproduction: Table 1 (certification) --------------------------------

// CertificationConfig sizes a certification matrix run.
type CertificationConfig = cert.SuiteConfig

// CertificationReport aggregates a certification run.
type CertificationReport = cert.SuiteReport

// RunCertification executes the 7 × 2 × 6 ABC certification matrix
// (§4.2); with the paper's repetition counts it reproduces the 93.4 %
// accuracy with failures confined to the automation-racy tests 4 and 5.
var RunCertification = cert.RunSuite

// RunRandomPlacements is the §4.3 in-view accuracy analysis: n random
// placements of a double cross-domain iframe checked against exact
// geometry.
var RunRandomPlacements = cert.RunRandomPlacements

// ---- Reproduction: Figure 3 / Table 2 (production comparison) -------------

// SimConfig sizes a production-deployment simulation.
type SimConfig = campaign.Config

// SimResult is a production simulation outcome.
type SimResult = campaign.Result

// RunProductionSim simulates DSP campaigns with Q-Tag (and, on the
// comparison subset, the commercial verifier) deployed on synthetic
// traffic calibrated to the paper's Table 2 environment capabilities.
func RunProductionSim(cfg SimConfig) *SimResult { return campaign.New(cfg).Run() }

// SolutionSummary is one Figure 3 bar (mean ± std across campaigns).
type SolutionSummary = campaign.SolutionSummary

// Figure3 computes measured-rate and viewability-rate summaries per
// solution from a simulation result.
var Figure3 = campaign.Figure3

// Table2Cell is one site-type × OS row of Table 2.
type Table2Cell = aggregate.Table2Cell

// Table2 slices measured rates by site type × OS for mobile traffic of
// the comparison subset (the campaigns carrying both tags).
var Table2 = campaign.Table2ForResult

// ---- Reproduction: §6.1 (economics) ----------------------------------------

// EconomicsParams describes a DSP's traffic for the revenue model.
type EconomicsParams = economics.Params

// RevenueUplift evaluates the viewable-impression-pricing revenue model.
var RevenueUplift = economics.Compute

// PaperMidSizeDSP is the §6.1 mid-size scenario (100 M ads/day, $1 CPM).
var PaperMidSizeDSP = economics.PaperMidSize

// PaperLargeDSP is the §6.1 large scenario (1 B ads/day).
var PaperLargeDSP = economics.PaperLargeSize

// ---- Extensions -------------------------------------------------------------

// GenerateJS emits the deployable JavaScript tag for a configuration —
// the artifact a real DSP embeds in creatives. Algorithm identical to
// the Go tag.
var GenerateJS = qtag.GenerateJS

// AuditReport is a lifecycle check's outcome: the detector's snapshot,
// each row with its Violations; Clean reports whether no row has one.
type AuditReport = detect.Snapshot

// Audit checks the beacons of a Collector, or of a SimResult, against
// the protocol and the standard's timing — the paper's
// transparency claim made operational — by replaying c.Events() through
// a fresh detector: the fold qtag-server runs on every beacon and
// `qtag-replay -report-json -detect` over a WAL.
func Audit(c interface{ Events() []Event }) AuditReport {
	d := detect.New(detect.Options{})
	for _, e := range c.Events() {
		d.Observe(e)
	}
	return d.Snapshot()
}

// StressResult aggregates a randomized differential stress batch.
type StressResult = stress.BatchResult

// RunStress executes n random adversarial browsing scenarios and
// differentially checks Q-Tag against a tolerance-bracketed oracle. A
// correct build reports zero mismatches.
var RunStress = stress.RunBatch
