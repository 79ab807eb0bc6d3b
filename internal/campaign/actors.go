package campaign

import (
	"fmt"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/obs"
	"qtag/internal/simclock"
	"qtag/internal/simrand"
	"qtag/internal/viewability"
)

// ActorKind names one adversarial (or honest-baseline) traffic model.
// Every kind is deterministic from its RNG fork: same seed, same
// beacons — what lets the precision/recall harness pin exact floors.
type ActorKind string

// Traffic actor kinds. Each adversarial kind fabricates the beacon
// signature of one real-world fraud family (Marciel et al., PAPERS.md):
const (
	// ActorHonest is the clean baseline: full served → loaded →
	// in-view → out-of-view lifecycles, dwell spread naturally,
	// impressions across many placements. It exists so false-positive
	// floors are measured against realistic traffic, not absence of
	// traffic.
	ActorHonest ActorKind = "honest"
	// ActorReplayFarm is a bot farm replaying captured beacons: a
	// small set of real-looking lifecycles re-submitted byte-identical
	// many times over, compressed into a burst.
	ActorReplayFarm ActorKind = "replay-farm"
	// ActorAdStacking piles creatives onto one placement: every
	// lifecycle is individually plausible, but all in-views land on a
	// single publisher slot.
	ActorAdStacking ActorKind = "ad-stacking"
	// ActorHiddenIframe renders ads into invisible stuffed iframes:
	// the tag fires, but visibility collapses instantly — dwell mass
	// at ~0, often with degenerate 1×1 creative sizes.
	ActorHiddenIframe ActorKind = "hidden-iframe"
	// ActorSpoofedInView fabricates in-view beacons with no lifecycle
	// behind them: no served log, no tag check-in, just the billable
	// event.
	ActorSpoofedInView ActorKind = "spoofed-in-view"
	// ActorDuplicateFlood hammers a handful of impressions' beacons
	// thousands of times — a retry storm turned attack.
	ActorDuplicateFlood ActorKind = "duplicate-flood"
)

// Fraudulent reports whether the kind is an adversary (everything but
// the honest baseline).
func (k ActorKind) Fraudulent() bool { return k != ActorHonest && k != "" }

// FraudTag is the ground-truth span detail RunActor records for every
// impression: "fraud:<kind>" for adversaries, "honest" otherwise. The
// lifecycle tracer carrying these tags is the oracle the detection
// harness scores against.
func (k ActorKind) FraudTag() string {
	if k.Fraudulent() {
		return "fraud:" + string(k)
	}
	return "honest"
}

// ActorEpoch anchors actor event time. It matches simclock.Epoch so
// actor traffic and organic simulator traffic share one timeline.
var ActorEpoch = simclock.Epoch

// ActorSpec configures one traffic actor.
type ActorSpec struct {
	// Kind selects the traffic model.
	Kind ActorKind
	// CampaignID is the campaign the actor's beacons claim.
	CampaignID string
	// Impressions is the distinct impression count (defaults per kind:
	// 200 honest, 40 replay-farm, 120 stacking/hidden/spoofed, 10
	// duplicate-flood).
	Impressions int
	// Start offsets the actor's first event from ActorEpoch.
	Start time.Duration
	// Over spreads the actor's impressions across this span (defaults
	// per kind: minutes for slow actors, seconds for bursts).
	Over time.Duration
	// Source is the measurement solution the actor's tag beacons
	// claim (default qtag).
	Source beacon.Source
	// Replays is how many times replay-farm and duplicate-flood
	// re-submit each captured beacon (default 5 and 400).
	Replays int
}

func (a ActorSpec) withDefaults() ActorSpec {
	if a.Source == "" {
		a.Source = beacon.SourceQTag
	}
	if a.Impressions <= 0 {
		switch a.Kind {
		case ActorReplayFarm:
			a.Impressions = 40
		case ActorDuplicateFlood:
			a.Impressions = 10
		default:
			a.Impressions = 120
		}
	}
	if a.Over <= 0 {
		switch a.Kind {
		case ActorReplayFarm, ActorDuplicateFlood:
			a.Over = 10 * time.Second
		default:
			a.Over = 10 * time.Minute
		}
	}
	if a.Replays <= 0 {
		switch a.Kind {
		case ActorDuplicateFlood:
			a.Replays = 400
		default:
			a.Replays = 5
		}
	}
	return a
}

// honestSlots is how many publisher placements honest inventory
// spreads across.
const honestSlots = 24

// RunActor emits the actor's full beacon stream into sink and records
// one ground-truth span per impression (stage served, detail
// ActorKind.FraudTag) into tracer when it is non-nil. Submission
// errors are ignored — adversaries are best-effort by nature, and
// honest beacon loss is the fault layer's job, not ours. Returns the
// number of submissions attempted (replays included).
func RunActor(spec ActorSpec, rng *simrand.RNG, sink beacon.Sink, tracer *obs.LifecycleTracer) int {
	spec = spec.withDefaults()
	rng = rng.Fork("actor-" + string(spec.Kind) + "-" + spec.CampaignID)
	submitted := 0
	submit := func(e beacon.Event) {
		_ = sink.Submit(e)
		submitted++
	}
	trace := func(imp string, at time.Time) {
		if tracer != nil {
			tracer.Record(imp, spec.CampaignID, obs.StageServed, at, spec.Kind.FraudTag())
		}
	}

	start := ActorEpoch.Add(spec.Start)
	step := spec.Over / time.Duration(spec.Impressions)
	meta := beacon.Meta{AdSize: "300x250", OS: "android", SiteType: "web"}

	for i := 0; i < spec.Impressions; i++ {
		imp := fmt.Sprintf("%s-%s-%04d", spec.CampaignID, spec.Kind, i)
		at := start.Add(time.Duration(i) * step)
		trace(imp, at)

		switch spec.Kind {
		case ActorHonest:
			m := meta
			m.Slot = fmt.Sprintf("slot-%02d", i%honestSlots)
			loadedAt := at.Add(80 * time.Millisecond)
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Type: beacon.EventServed, At: at, Meta: m})
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventLoaded, At: loadedAt, Meta: m})
			if rng.Bool(0.6) { // not every honest impression is viewed
				// A tag reports in-view once the standard's dwell has
				// passed since it loaded, and a little after.
				std := viewability.StandardCriteria(viewability.FormatNamed(m.Format)).Dwell
				inAt := loadedAt.Add(std + time.Duration(rng.Range(120, 1120))*time.Millisecond)
				// Natural dwell: lognormal around ~3s, essentially never
				// at zero or pinned to the 1s standard threshold.
				dwell := time.Duration(rng.LogNormal(1.1, 0.4) * float64(time.Second))
				submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventInView, At: inAt, Meta: m})
				submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventOutOfView, At: inAt.Add(dwell), Meta: m})
			}

		case ActorReplayFarm:
			// Capture a plausible lifecycle once, then replay the whole
			// beacon set byte-identically Replays times in a tight burst.
			m := meta
			m.Slot = fmt.Sprintf("slot-%02d", i%honestSlots)
			inAt := at.Add(300 * time.Millisecond)
			captured := []beacon.Event{
				{ImpressionID: imp, CampaignID: spec.CampaignID, Type: beacon.EventServed, At: at, Meta: m},
				{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventLoaded, At: at.Add(80 * time.Millisecond), Meta: m},
				{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventInView, At: inAt, Meta: m},
				{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventOutOfView, At: inAt.Add(2 * time.Second), Meta: m},
			}
			for pass := 0; pass <= spec.Replays; pass++ {
				for _, e := range captured {
					submit(e)
				}
			}

		case ActorAdStacking:
			// Every lifecycle individually plausible, every in-view on
			// the same placement.
			m := meta
			m.Slot = "stacked-slot"
			inAt := at.Add(time.Duration(rng.Range(200, 1200)) * time.Millisecond)
			dwell := time.Duration(rng.LogNormal(1.1, 0.4) * float64(time.Second))
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Type: beacon.EventServed, At: at, Meta: m})
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventLoaded, At: at.Add(80 * time.Millisecond), Meta: m})
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventInView, At: inAt, Meta: m})
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventOutOfView, At: inAt.Add(dwell), Meta: m})

		case ActorHiddenIframe:
			// The stuffed iframe fires the tag, then visibility
			// collapses within milliseconds; creative is a 1×1.
			m := meta
			m.AdSize = "1x1"
			m.Slot = fmt.Sprintf("slot-%02d", i%honestSlots)
			inAt := at.Add(150 * time.Millisecond)
			blip := time.Duration(rng.Range(1, 40)) * time.Millisecond
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Type: beacon.EventServed, At: at, Meta: m})
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventLoaded, At: at.Add(60 * time.Millisecond), Meta: m})
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventInView, At: inAt, Meta: m})
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventOutOfView, At: inAt.Add(blip), Meta: m})

		case ActorSpoofedInView:
			// Just the billable event. No served log, no tag check-in.
			m := meta
			m.Slot = fmt.Sprintf("slot-%02d", i%honestSlots)
			submit(beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventInView, At: at, Meta: m})

		case ActorDuplicateFlood:
			// A handful of real-ish lifecycles, each beacon hammered
			// Replays times.
			m := meta
			m.Slot = fmt.Sprintf("slot-%02d", i%honestSlots)
			served := beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Type: beacon.EventServed, At: at, Meta: m}
			loaded := beacon.Event{ImpressionID: imp, CampaignID: spec.CampaignID, Source: spec.Source, Type: beacon.EventLoaded, At: at.Add(80 * time.Millisecond), Meta: m}
			submit(served)
			submit(loaded)
			for pass := 0; pass < spec.Replays; pass++ {
				submit(served)
				submit(loaded)
			}

		default:
			// Unknown kinds emit nothing: a typo in a scenario table
			// should fail its assertions loudly, not fabricate traffic.
		}
	}
	return submitted
}

// OracleLabels extracts the ground-truth campaign labels from a
// lifecycle tracer fed by RunActor: campaign id → true when any of
// its impressions carries a fraud tag. This is the label set the
// precision/recall harness scores detector output against.
func OracleLabels(tr *obs.LifecycleTracer) map[string]bool {
	labels := make(map[string]bool)
	if tr == nil {
		return labels
	}
	for _, s := range tr.Spans() {
		if s.Stage != obs.StageServed {
			continue
		}
		switch {
		case len(s.Detail) > 6 && s.Detail[:6] == "fraud:":
			labels[s.Campaign] = true
		case s.Detail == "honest":
			if _, seen := labels[s.Campaign]; !seen {
				labels[s.Campaign] = false
			}
		}
	}
	return labels
}
