// Command qtag-sim runs the production-deployment simulation (§5–6) and
// prints the paper's Figure 3 comparison, Table 2 slices and §6.1
// economics computed from the *measured* rates of the run.
//
// Usage:
//
//	qtag-sim [-campaigns 99] [-impressions 120] [-both 4] [-both-factor 3.9]
//	         [-seed 2019] [-server http://host:8640] [-breakdown]
//	         [-fault-drop 0.1] [-fault-err 0.05]
//	         [-queue] [-queue-cap 4096] [-breaker]
//	         [-fault-http-drop 0.1] [-fault-http-5xx 0.1] [-fault-http-latency 5ms]
//	         [-metrics] [-trace] [-pprof :6060] [-log-level info]
//
// With -server, every beacon of the simulation is additionally delivered
// to a live qtag-server over HTTP; -queue buffers that delivery through a
// store-and-forward QueueSink and -breaker adds a circuit breaker, so an
// unreachable collector degrades the mirror instead of the run.
//
// -fault-drop / -fault-err inject deterministic beacon loss on the tag →
// collector path (internal/faults): the same seed reproduces the same
// measured-rate / not-measured counts run after run, which is how the
// paper's "not measured" population is reproduced as a function of
// injected loss. -fault-http-* degrade the HTTP mirror path instead.
//
// -metrics dumps the run's metrics registry (campaign totals plus, with
// -server, the mirror sink/queue/breaker series) in Prometheus text
// format at the end of the run — the counts reconcile with a scrape of
// the collector's /metrics. -trace records a per-impression lifecycle
// trace and prints its deterministic summary. -pprof serves
// net/http/pprof on a separate listener for profiling long runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/economics"
	"qtag/internal/faults"
	"qtag/internal/obs"
	"qtag/internal/report"
	"qtag/internal/simrand"

	_ "net/http/pprof" // registers /debug/pprof on the -pprof listener's DefaultServeMux
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command: it parses args, runs the simulation and prints the
// report to stdout, logging to stderr, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("qtag-sim", flag.ContinueOnError)
	campaigns := fs.Int("campaigns", 99, "number of campaigns (paper: 99)")
	impressions := fs.Int("impressions", 120, "mean impressions per campaign")
	both := fs.Int("both", 4, "campaigns instrumented with both tags (paper: 4)")
	bothFactor := fs.Float64("both-factor", 3.9, "size multiplier for both-tag campaigns")
	seed := fs.Uint64("seed", 2019, "simulation seed")
	serverURL := fs.String("server", "", "optional collection-server URL to mirror beacons to")
	binaryBeacons := fs.Bool("binary-beacons", false, "mirror beacons with the compact binary codec")
	breakdown := fs.Bool("breakdown", false, "print the per-campaign table")
	parallel := fs.Int("parallel", runtime.NumCPU(), "campaigns simulated concurrently")
	faultDrop := fs.Float64("fault-drop", 0, "probability a tag beacon is silently lost in transit")
	faultErr := fs.Float64("fault-err", 0, "probability a tag beacon submission fails with an error")
	useQueue := fs.Bool("queue", false, "buffer the -server mirror through a store-and-forward queue")
	queueCap := fs.Int("queue-cap", 4096, "mirror queue capacity (events)")
	useBreaker := fs.Bool("breaker", false, "wrap the -server mirror in a circuit breaker")
	breakerThreshold := fs.Int("breaker-threshold", beacon.DefaultBreakerThreshold, "consecutive failures before the mirror breaker opens")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "mirror breaker cool-down")
	httpDrop := fs.Float64("fault-http-drop", 0, "probability a mirror HTTP request is dropped on the wire")
	http5xx := fs.Float64("fault-http-5xx", 0, "probability a mirror HTTP request is answered with an injected 503")
	httpLatency := fs.Duration("fault-http-latency", 0, "max injected latency per mirror HTTP request")
	metricsDump := fs.Bool("metrics", false, "print the run's metrics in Prometheus text format at the end")
	traceRun := fs.Bool("trace", false, "record a per-impression lifecycle trace and print its summary")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060; empty = off)")
	logLevel := fs.String("log-level", "info", "log level (debug, info, warn, error)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		return 2
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	if *pprofAddr != "" {
		go func() {
			// The blank net/http/pprof import registered its handlers on
			// http.DefaultServeMux; serve them on a side listener so
			// profiling never mixes with the report on stdout.
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Warn("pprof listener", "err", err)
			}
		}()
	}

	cfg := campaign.Config{
		Seed:                   *seed,
		Campaigns:              *campaigns,
		ImpressionsPerCampaign: *impressions,
		BothCampaigns:          *both,
		BothImpressionsFactor:  *bothFactor,
		Parallelism:            *parallel,
		TagFaults:              faults.Profile{Drop: *faultDrop, Error: *faultErr},
		TraceLifecycle:         *traceRun,
	}

	reg := obs.NewRegistry()
	var queue *beacon.QueueSink
	var breaker *beacon.CircuitBreaker
	var httpFaults *faults.RoundTripper
	var httpSink *beacon.HTTPSink
	if *serverURL != "" {
		httpSink = &beacon.HTTPSink{BaseURL: *serverURL, Retries: 2, Binary: *binaryBeacons}
		httpSink.RegisterMetrics(reg)
		wireFaults := faults.Profile{Drop: *httpDrop, Error: *http5xx, Latency: *httpLatency}
		if wireFaults.Enabled() {
			httpFaults = faults.NewRoundTripper(nil, simrand.New(*seed).Fork("http-faults"), wireFaults)
			httpSink.Client = &http.Client{Transport: httpFaults}
			logger.Info("mirror wire faults", "profile", wireFaults.String())
		}
		var mirror beacon.BatchSink = httpSink
		if *useBreaker {
			breaker = beacon.NewCircuitBreaker(mirror, *breakerThreshold, *breakerCooldown)
			breaker.RegisterMetrics(reg)
			mirror = breaker
		}
		if *useQueue {
			queue = beacon.NewQueueSink(mirror, beacon.QueueOptions{Capacity: *queueCap})
			queue.RegisterMetrics(reg)
			mirror = queue
		}
		cfg.ExtraSink = mirror
		logger.Info("mirroring beacons", "server", *serverURL)
	}

	res := campaign.New(cfg).Run()

	if queue != nil {
		// Drain the store-and-forward buffer before reporting.
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := queue.Close(drainCtx); err != nil {
			logger.Warn("mirror drain", "err", err)
		}
		cancel()
	}

	var served int
	for _, c := range res.Campaigns {
		served += c.Served
	}
	fmt.Fprintf(stdout, "simulated %d campaigns, %d impressions (seed %d)\n\n", len(res.Campaigns), served, *seed)

	if cfg.TagFaults.Enabled() {
		var drops, errs, loaded int
		for _, c := range res.Campaigns {
			drops += c.FaultDrops
			errs += c.FaultErrors
			loaded += c.QTagLoaded
		}
		notMeasured := served - loaded
		fmt.Fprintf(stdout, "fault injection (%s): beacons dropped=%d errored=%d\n", cfg.TagFaults, drops, errs)
		fmt.Fprintf(stdout, "  q-tag not measured: %d of %d served (%.1f%%)\n\n", notMeasured, served,
			100*float64(notMeasured)/float64(max(served, 1)))
	}

	fig := campaign.Figure3(res)
	q := fig[beacon.SourceQTag]
	c := fig[beacon.SourceCommercial]

	fmt.Fprintln(stdout, "Figure 3(a) — measured rate (mean ± std across campaigns)")
	fmt.Fprintln(stdout, "  "+report.Bar("Q-Tag", q.MeanMeasured, 1, 40)+fmt.Sprintf(" ±%.1f", q.StdMeasured*100))
	fmt.Fprintln(stdout, "  "+report.Bar("Commercial", c.MeanMeasured, 1, 40)+fmt.Sprintf(" ±%.1f", c.StdMeasured*100))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "Figure 3(b) — viewability rate (mean ± std across campaigns)")
	fmt.Fprintln(stdout, "  "+report.Bar("Q-Tag", q.MeanViewability, 1, 40)+fmt.Sprintf(" ±%.1f", q.StdViewability*100))
	fmt.Fprintln(stdout, "  "+report.Bar("Commercial", c.MeanViewability, 1, 40)+fmt.Sprintf(" ±%.1f", c.StdViewability*100))
	fmt.Fprintln(stdout)

	fmt.Fprintln(stdout, "Table 2 — measured rate by site type and OS (mobile impressions, both-tag campaigns)")
	rows := make([][]string, 0, 4)
	for _, cell := range campaign.Table2ForResult(res) {
		rows = append(rows, []string{
			cell.SiteType, cell.OS,
			report.Percent(cell.QTag), report.Percent(cell.Commercial),
			fmt.Sprint(cell.Served),
		})
	}
	fmt.Fprint(stdout, report.Table([]string{"Site type", "OS", "Q-Tag", "Commercial", "n"}, rows))
	fmt.Fprintln(stdout)

	fmt.Fprintln(stdout, "§6.1 — economics at the measured rates of this run")
	params := economics.PaperMidSize()
	params.MeasuredRateQTag = q.MeanMeasured
	params.MeasuredRateCommercial = c.MeanMeasured
	params.ViewabilityRate = q.MeanViewability
	fmt.Fprintf(stdout, "  mid-size DSP (100M ads/day): %s\n", economics.Compute(params))
	params.AdsPerDay = 1e9
	fmt.Fprintf(stdout, "  large DSP    (1B ads/day):  %s\n", economics.Compute(params))

	if *breakdown {
		fmt.Fprintln(stdout, "\nPer-campaign breakdown")
		rows = rows[:0]
		for _, r := range campaign.Breakdown(res) {
			comm := "-"
			if r.Both {
				comm = report.Percent(r.CommMeasured)
			}
			rows = append(rows, []string{
				r.ID, fmt.Sprint(r.Served),
				report.Percent(r.QTagMeasured), report.Percent(r.QTagViewability), comm,
			})
		}
		fmt.Fprint(stdout, report.Table([]string{"Campaign", "Served", "Q-Tag meas.", "Q-Tag view.", "Comm. meas."}, rows))
	}

	if httpSink != nil {
		health := fmt.Sprintf("delivered=%d retried=%d failed=%d", httpSink.Delivered(), httpSink.Retried(), httpSink.Failed())
		if breaker != nil {
			health += fmt.Sprintf(" breaker=%s tripped=%d rejected=%d", breaker.State(), breaker.Tripped(), breaker.Rejected())
		}
		if queue != nil {
			health += " queue[" + queue.Stats().String() + "]"
		}
		if httpFaults != nil {
			health += " wire[" + httpFaults.Stats().String() + "]"
		}
		logger.Info("mirror delivery health", "health", health)
	}

	if *traceRun && res.Trace != nil {
		fmt.Fprintln(stdout, "\nLifecycle trace (deterministic for a given seed at any -parallel)")
		fmt.Fprintln(stdout, res.Trace.Summary())
	}

	if *metricsDump {
		// End-of-run registry dump. Beacon totals come from the store (the
		// ground truth every mirror scrape must reconcile with); the mirror
		// sink/queue/breaker series were registered as the chain was built.
		var loaded, inview int
		for _, cr := range res.Campaigns {
			loaded += cr.QTagLoaded
			inview += cr.QTagInView
		}
		servedTotal, loadedTotal, inviewTotal := int64(served), int64(loaded), int64(inview)
		reg.CounterFunc("qtag_sim_served_total", "Impressions served across all campaigns of the run.",
			func() int64 { return servedTotal })
		reg.CounterFunc("qtag_sim_qtag_loaded_total", "Impressions measured by Q-Tag (loaded beacons).",
			func() int64 { return loadedTotal })
		reg.CounterFunc("qtag_sim_qtag_inview_total", "Impressions Q-Tag reported in view.",
			func() int64 { return inviewTotal })
		reg.GaugeFunc("qtag_sim_store_events", "Distinct beacon events the run's in-memory store accepted.",
			func() float64 { return float64(res.Store.Len()) })
		fmt.Fprintln(stdout, "\n# end-of-run metrics")
		fmt.Fprint(stdout, reg.Render())
	}

	if q.MeanMeasured <= c.MeanMeasured {
		fmt.Fprintln(os.Stderr, "WARNING: expected Q-Tag to out-measure the commercial baseline")
		return 1
	}
	return 0
}
