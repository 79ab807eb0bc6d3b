package campaign

import (
	"fmt"
	"sync"
	"time"

	"qtag/internal/adserve"
	"qtag/internal/adtag"
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/commercial"
	"qtag/internal/dom"
	"qtag/internal/dsp"
	"qtag/internal/faults"
	"qtag/internal/geom"
	"qtag/internal/obs"
	"qtag/internal/qtag"
	"qtag/internal/simclock"
	"qtag/internal/simrand"
	"qtag/internal/viewability"
)

// Exchanges are the ad exchanges of the paper's production dataset (§5).
var Exchanges = []string{
	"appnexus", "axonix", "doubleclick", "mopub", "openx", "rubicon", "smaato", "smart",
}

// Sectors are advertiser verticals (§5 names the first three).
var Sectors = []string{
	"Food & Drink", "Personal Finance", "Style & Fashion",
	"Travel", "Automotive", "Technology", "Retail", "Entertainment",
}

// Countries are the campaign target geographies of §5.
var Countries = []string{"US", "MX", "CO", "ES", "UK", "DE", "FR"}

// AdSizes are the creative sizes used across the §5 campaigns.
var AdSizes = []geom.Size{{W: 300, H: 250}, {W: 320, H: 50}}

// Spec is one simulated campaign's configuration.
type Spec struct {
	ID          string
	Name        string
	Sector      string
	Country     string
	Size        geom.Size
	Impressions int
	// Both instruments the campaign with the commercial verifier in
	// addition to Q-Tag (the paper's 4-campaign comparison subset).
	Both bool
	// Mix is the campaign's traffic mix over environment classes.
	Mix TrafficMix
	// Audience is the campaign's user-behaviour profile.
	Audience behavior
}

// Config sizes a production simulation.
type Config struct {
	// Seed drives all randomness; same seed, same results.
	Seed uint64
	// Campaigns is the number of campaigns (paper: 99).
	Campaigns int
	// ImpressionsPerCampaign is the mean campaign size. The paper's
	// dataset averages ≈121k; simulations scale this down (tests use
	// ~60–150, cmd/qtag-sim as much as you can wait for).
	ImpressionsPerCampaign int
	// BothCampaigns is how many campaigns also carry the commercial tag
	// (paper: 4).
	BothCampaigns int
	// BothImpressionsFactor scales the both-tag campaigns' size (the
	// paper's comparison campaigns average ≈3.9× the rest).
	BothImpressionsFactor float64
	// MixSigma is the per-campaign traffic-mix jitter.
	MixSigma float64
	// EnvModels overrides the capability models (defaults calibrated to
	// Table 2).
	EnvModels map[EnvClass]EnvModel
	// ExtraSink, when set, additionally receives every beacon (e.g. an
	// HTTP sink towards a live collection server). The internal store is
	// always populated.
	ExtraSink beacon.Sink
	// RecordImpressions retains a per-impression record in the Result —
	// ground truth per impression, and a debugging aid. Off by default to
	// keep big runs lean.
	RecordImpressions bool
	// Parallelism is the number of campaigns simulated concurrently
	// (default 1). Each campaign is an independent virtual world with a
	// pre-forked RNG, so results are bit-identical at any parallelism.
	Parallelism int
	// SpreadOver distributes impression start times uniformly across a
	// monitoring window (the paper monitors campaigns for one week).
	// Zero keeps every impression at the virtual epoch; set it to make
	// time-windowed views, such as the report's rollup windows,
	// meaningful.
	SpreadOver time.Duration
	// TagFaults injects delivery faults on the tag → collector beacon
	// path (internal/faults): drops silently lose beacons, errors make
	// the tag's check-in fail, so the impression joins the "not measured"
	// population exactly as a lost beacon does in §4.4. Served events are
	// logged server-side by the DSP and are not affected. Each campaign
	// draws its schedule from its own forked RNG, so results stay
	// bit-identical at any Parallelism. The zero profile disables
	// injection and leaves the RNG streams untouched.
	TagFaults faults.Profile
	// TraceLifecycle records a per-impression lifecycle trace (served →
	// tag start → pixel classification → state transitions → beacon
	// enqueue → delivery/drop) into Result.Trace. Spans are timestamped
	// on the virtual clock and each campaign records into its own tracer,
	// merged in campaign order — traces are byte-identical at any
	// Parallelism. Off by default to keep big runs lean.
	TraceLifecycle bool
	// Adversaries adds deterministic adversarial traffic actors (bot
	// replay farms, ad stacking, hidden iframes, spoofed in-views,
	// duplicate floods — see ActorKind) running after the organic
	// campaigns, against the same sink. With TraceLifecycle set, every
	// actor impression carries its ground-truth fraud tag in
	// Result.Trace, which is what the detection harness scores against.
	Adversaries []ActorSpec
}

func (c Config) withDefaults() Config {
	if c.Campaigns == 0 {
		c.Campaigns = 99
	}
	if c.ImpressionsPerCampaign == 0 {
		c.ImpressionsPerCampaign = 100
	}
	if c.BothCampaigns == 0 {
		c.BothCampaigns = 4
	}
	if c.BothImpressionsFactor == 0 {
		c.BothImpressionsFactor = 1
	}
	if c.MixSigma == 0 {
		c.MixSigma = 0.25
	}
	if c.EnvModels == nil {
		c.EnvModels = DefaultEnvModels()
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	return c
}

// CampaignResult aggregates one campaign's outcome.
type CampaignResult struct {
	Spec             Spec
	Served           int
	QTagLoaded       int
	QTagInView       int
	CommercialLoaded int
	CommercialInView int
	// TruthViewed counts impressions whose ground-truth exposure met the
	// standard (known to the simulator, not to any tag).
	TruthViewed int
	// FaultDrops and FaultErrors count beacons lost / failed by the
	// injected fault profile (zero when Config.TagFaults is disabled).
	FaultDrops  int
	FaultErrors int
}

// MeasuredRate returns loaded/served for a solution.
func (c CampaignResult) MeasuredRate(src beacon.Source) float64 {
	if c.Served == 0 {
		return 0
	}
	switch src {
	case beacon.SourceCommercial:
		return float64(c.CommercialLoaded) / float64(c.Served)
	default:
		return float64(c.QTagLoaded) / float64(c.Served)
	}
}

// ViewabilityRate returns in-view/loaded for a solution.
func (c CampaignResult) ViewabilityRate(src beacon.Source) float64 {
	switch src {
	case beacon.SourceCommercial:
		if c.CommercialLoaded == 0 {
			return 0
		}
		return float64(c.CommercialInView) / float64(c.CommercialLoaded)
	default:
		if c.QTagLoaded == 0 {
			return 0
		}
		return float64(c.QTagInView) / float64(c.QTagLoaded)
	}
}

// TruthViewabilityRate returns the ground-truth viewed fraction.
func (c CampaignResult) TruthViewabilityRate() float64 {
	if c.Served == 0 {
		return 0
	}
	return float64(c.TruthViewed) / float64(c.Served)
}

// ImpressionRecord is one impression's ground truth (only collected with
// Config.RecordImpressions).
type ImpressionRecord struct {
	CampaignID string
	Env        EnvClass
	Mobile     bool
	// DepthFraction is the ad slot's position as a fraction of the page
	// height below the initial viewport (0 = above the fold).
	DepthFraction float64
	// Viewed is the oracle's ground truth.
	Viewed bool
	// QTagMeasured reports whether Q-Tag checked in on this impression.
	QTagMeasured bool
}

// Result is a full simulation outcome.
type Result struct {
	Config    Config
	Campaigns []CampaignResult
	// Store took every beacon of the run.
	Store *beacon.Store
	// Beacons keeps a copy of every distinct beacon of the run.
	Beacons *beacon.Recorder
	// Aggregate counts the run's impressions, as qtag-server does: the
	// campaigns' counts above and the Table 2 slices come from it.
	Aggregate *aggregate.Aggregator
	// Impressions holds per-impression records when
	// Config.RecordImpressions is set.
	Impressions []ImpressionRecord
	// Trace is the merged per-impression lifecycle trace when
	// Config.TraceLifecycle is set; nil otherwise.
	Trace *obs.LifecycleTracer
}

// Simulator runs the production-deployment simulation.
type Simulator struct {
	cfg   Config
	rng   *simrand.RNG
	store *beacon.Store
	agg   *aggregate.Aggregator
	rec   *beacon.Recorder
	sink  beacon.Sink
}

// New creates a simulator.
func New(cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	store := beacon.NewStore()
	agg := aggregate.Attach(store, aggregate.Options{TTL: -1})
	rec := beacon.Record(store)
	var sink beacon.Sink = store
	if cfg.ExtraSink != nil {
		extra := cfg.ExtraSink
		sink = beacon.SinkFunc(func(e beacon.Event) error {
			if err := store.Submit(e); err != nil {
				return err
			}
			return extra.Submit(e)
		})
	}
	return &Simulator{cfg: cfg, rng: simrand.New(cfg.Seed), store: store, agg: agg, rec: rec, sink: sink}
}

// GenerateSpecs produces the campaign roster deterministically from the
// seed. The first BothCampaigns carry both tags.
func (s *Simulator) GenerateSpecs() []Spec {
	rng := s.rng.Fork("specs")
	specs := make([]Spec, 0, s.cfg.Campaigns)
	base := DefaultTrafficMix()
	for i := 0; i < s.cfg.Campaigns; i++ {
		both := i < s.cfg.BothCampaigns
		imps := float64(s.cfg.ImpressionsPerCampaign) * rng.LogNormal(0, 0.3)
		if both {
			imps *= s.cfg.BothImpressionsFactor
		}
		n := int(imps)
		if n < 10 {
			n = 10
		}
		specs = append(specs, Spec{
			ID:          fmt.Sprintf("camp-%03d", i+1),
			Name:        fmt.Sprintf("%s %03d", Sectors[i%len(Sectors)], i+1),
			Sector:      Sectors[i%len(Sectors)],
			Country:     Countries[i%len(Countries)],
			Size:        AdSizes[i%len(AdSizes)],
			Impressions: n,
			Both:        both,
			Mix:         base.Perturb(rng, s.cfg.MixSigma),
			Audience:    drawBehavior(rng),
		})
	}
	return specs
}

// Run executes the whole simulation and returns per-campaign aggregates.
// Campaigns run Parallelism at a time; determinism is preserved because
// every campaign's RNG is forked from the root stream up front, in
// campaign order, and per-campaign outputs are merged back in order.
func (s *Simulator) Run() *Result {
	specs := s.GenerateSpecs()
	res := &Result{Config: s.cfg, Store: s.store, Beacons: s.rec, Aggregate: s.agg, Campaigns: make([]CampaignResult, len(specs))}

	// Pre-fork one RNG per campaign in deterministic order.
	rngs := make([]*simrand.RNG, len(specs))
	for i, spec := range specs {
		rngs[i] = s.rng.Fork("campaign-" + spec.ID)
	}

	workers := s.cfg.Parallelism
	if workers > len(specs) {
		workers = len(specs)
	}
	records := make([][]ImpressionRecord, len(specs))
	tracers := make([]*obs.LifecycleTracer, len(specs))
	if workers <= 1 {
		for i, spec := range specs {
			res.Campaigns[i], records[i], tracers[i] = s.runCampaign(spec, rngs[i])
		}
	} else {
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					res.Campaigns[i], records[i], tracers[i] = s.runCampaign(specs[i], rngs[i])
				}
			}()
		}
		for i := range specs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, recs := range records {
		res.Impressions = append(res.Impressions, recs...)
	}

	// Adversarial actors run after the organic campaigns, in spec
	// order, each on its own RNG fork — bit-identical at any
	// Parallelism, like everything else.
	advTracers := make([]*obs.LifecycleTracer, 0, len(s.cfg.Adversaries))
	for _, adv := range s.cfg.Adversaries {
		var tr *obs.LifecycleTracer
		if s.cfg.TraceLifecycle {
			tr = obs.NewLifecycleTracer(simclock.Epoch)
			advTracers = append(advTracers, tr)
		}
		RunActor(adv, s.rng, s.sink, tr)
	}

	if s.cfg.TraceLifecycle {
		// Merge the per-campaign tracers in campaign order: the combined
		// span stream is identical at any worker count.
		res.Trace = obs.NewLifecycleTracer(simclock.Epoch)
		res.Trace.Merge(tracers...)
		res.Trace.Merge(advTracers...)
	}
	return res
}

// runCampaign delivers and measures every impression of one campaign.
// It is safe to call concurrently for distinct campaigns: the only shared
// state it touches is the thread-safe beacon sink.
func (s *Simulator) runCampaign(spec Spec, rng *simrand.RNG) (CampaignResult, []ImpressionRecord, *obs.LifecycleTracer) {
	tags := []adtag.Tag{qtag.New(qtag.Config{})}
	if spec.Both {
		tags = append(tags, commercial.New(commercial.Config{}))
	}
	platform := dsp.New("sonata")
	platform.AddCampaign(&dsp.Campaign{
		ID: spec.ID, Name: spec.Name, Sector: spec.Sector, Country: spec.Country,
		Creative: adserve.Creative{ID: "cr-" + spec.ID, Size: spec.Size},
		BidCPM:   1,
		Tags:     tags,
	})

	// Each campaign records into its own tracer so the merged stream is
	// deterministic at any parallelism. Tracing wraps the sinks without
	// consuming any RNG, so traced and untraced runs are bit-identical.
	var tracer *obs.LifecycleTracer
	serverSink := s.sink
	tagSink := s.sink
	if s.cfg.TraceLifecycle {
		tracer = obs.NewLifecycleTracer(simclock.Epoch)
		serverSink = &ackSink{next: s.sink, tr: tracer}
		tagSink = &ackSink{next: s.sink, tr: tracer}
	}

	// The tag → collector path may be degraded by an injected fault
	// profile; the DSP's own served log never is. Forking the fault
	// stream here (once, before any impression) keeps the campaign's
	// behaviour stream identical to a run with a different fault rate.
	var faultSink *faults.Sink
	if s.cfg.TagFaults.Enabled() {
		faultSink = faults.NewSink(tagSink, rng.Fork("faults"), s.cfg.TagFaults)
		// Simulations run on a virtual clock; injected latency is counted
		// but must not wall-sleep.
		faultSink.SetSleep(nil)
		tagSink = faultSink
	}
	if tracer != nil {
		// Outermost wrapper: every tag beacon records an enqueue span (and
		// a state-transition span for in-view/out-of-view) before faults
		// or the store see it. A beacon that is enqueued but never
		// delivered was lost in transit — the trace shows exactly which.
		tagSink = &enqueueSink{next: tagSink, tr: tracer}
	}

	out := CampaignResult{Spec: spec}
	var records []ImpressionRecord
	for i := 0; i < spec.Impressions; i++ {
		if rec, ok := s.runImpression(spec, platform, rng, serverSink, tagSink, tracer, &out); ok && s.cfg.RecordImpressions {
			records = append(records, rec)
		}
	}
	if faultSink != nil {
		snap := faultSink.Stats()
		out.FaultDrops = int(snap.Dropped)
		out.FaultErrors = int(snap.Errored)
	}
	// The campaign's impression counts, from the aggregator.
	counts := s.agg.Totals(spec.ID)
	out.Served = int(counts.Served)
	out.QTagLoaded = int(counts.Measured[beacon.SourceQTag])
	out.QTagInView = int(counts.Viewed[beacon.SourceQTag])
	out.CommercialLoaded = int(counts.Measured[beacon.SourceCommercial])
	out.CommercialInView = int(counts.Viewed[beacon.SourceCommercial])
	return out, records, tracer
}

// enqueueSink is the tracing wrapper at the top of the tag beacon path: it
// records a state-transition span for in-view/out-of-view events and an
// enqueue span for every event, then forwards. A forwarding error (an
// injected fault, a validation reject) records a drop span — the beacon
// left the tag but never reached the store.
type enqueueSink struct {
	next beacon.Sink
	tr   *obs.LifecycleTracer
}

// Submit implements beacon.Sink.
func (s *enqueueSink) Submit(e beacon.Event) error {
	detail := string(e.Source) + ":" + string(e.Type)
	if e.Type == beacon.EventInView || e.Type == beacon.EventOutOfView {
		s.tr.Record(e.ImpressionID, e.CampaignID, obs.StageTransition, e.At, detail)
	}
	s.tr.Record(e.ImpressionID, e.CampaignID, obs.StageEnqueued, e.At, detail)
	if err := s.next.Submit(e); err != nil {
		s.tr.Record(e.ImpressionID, e.CampaignID, obs.StageDropped, e.At, err.Error())
		return err
	}
	return nil
}

// ackSink sits directly above the store and records a delivery span once
// the store has accepted the event. A beacon with an enqueue span but no
// delivery span was silently lost in transit (a fault-profile drop).
type ackSink struct {
	next beacon.Sink
	tr   *obs.LifecycleTracer
}

// Submit implements beacon.Sink.
func (s *ackSink) Submit(e beacon.Event) error {
	if err := s.next.Submit(e); err != nil {
		return err
	}
	s.tr.Record(e.ImpressionID, e.CampaignID, obs.StageDelivered, e.At, string(e.Type))
	return nil
}

const sessionPageOrigin = dom.Origin("https://publisher.example")

// runImpression simulates one served ad: environment draw, delivery
// through an exchange, the user's session, and ground-truth tracking.
func (s *Simulator) runImpression(spec Spec, platform *dsp.DSP, rng *simrand.RNG, serverSink, tagSink beacon.Sink, tracer *obs.LifecycleTracer, out *CampaignResult) (ImpressionRecord, bool) {
	envClass := spec.Mix.Draw(rng)
	model := s.cfg.EnvModels[envClass]
	prof := model.Profile(rng)

	clock := simclock.New()
	if s.cfg.SpreadOver > 0 {
		// Place this impression somewhere in the monitoring window; the
		// empty clock advances in O(1).
		clock.Advance(time.Duration(rng.Float64() * float64(s.cfg.SpreadOver)))
	}
	b := browser.New(clock, browser.Options{Profile: prof})
	defer b.Close()

	vp := geom.Size{W: 1280, H: 720}
	if prof.Device == browser.Mobile {
		vp = geom.Size{W: 412, H: 800}
	}
	pageH := 3200.0
	w := b.OpenWindow(geom.Point{}, vp)
	doc := dom.NewDocument(sessionPageOrigin, geom.Size{W: vp.W, H: pageH})
	page := w.ActiveTab().Navigate(doc)

	adY := rng.Range(60, pageH-spec.Size.H-60)
	adX := geom.Clamp((vp.W-spec.Size.W)/2, 0, vp.W)
	slot := doc.Root().AppendChild("ad-slot", geom.Rect{X: adX, Y: adY, W: spec.Size.W, H: spec.Size.H})

	exchange := adserve.NewExchange(Exchanges[rng.Intn(len(Exchanges))])
	exchange.Register(platform)
	deliverer := &adserve.Deliverer{
		Exchange:   exchange,
		ServerSink: serverSink,
		TagSink:    tagSink,
		Tracer:     tracer,
		TagLoadFails: func(adtag.Tag) bool {
			return !rng.Bool(model.TagLoadSuccess)
		},
	}
	req := &adserve.SlotRequest{
		Page: page, Slot: slot,
		Meta: beacon.Meta{
			OS:       string(prof.OS),
			SiteType: prof.Site.String(),
			Country:  spec.Country,
		},
	}
	del, err := deliverer.Deliver(req)
	if err != nil {
		return ImpressionRecord{}, false // no bid / blocked: not served
	}
	defer del.Close()

	// Ground-truth oracle sampled from compositor truth.
	criteria := viewability.CriteriaForSize(spec.Size, false)
	oracle := viewability.NewOracle(criteria)
	sampler := clock.Every(50*time.Millisecond, func() {
		oracle.Observe(clock.Now(), page.TrueVisibleFraction(del.CreativeElement))
	})

	runSession(page, drawSession(rng, spec.Audience), rng)
	sampler.Stop()
	viewed := oracle.FinishAt(clock.Now())
	if viewed {
		out.TruthViewed++
	}
	depth := (adY - vp.H) / pageH
	if depth < 0 {
		depth = 0
	}
	_, qtagFailed := del.TagErrors["qtag"]
	return ImpressionRecord{
		CampaignID:    spec.ID,
		Env:           envClass,
		Mobile:        prof.Device == browser.Mobile,
		DepthFraction: depth,
		Viewed:        viewed,
		QTagMeasured:  !qtagFailed,
	}, true
}
