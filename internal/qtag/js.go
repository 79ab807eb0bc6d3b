package qtag

import (
	"fmt"
	"strings"

	"qtag/internal/geom"
	"qtag/internal/viewability"
)

// GenerateJS emits the deployable JavaScript ad tag implementing this
// configuration — the artifact a DSP actually ships inside its creatives
// (the paper's Q-Tag is "a piece of code (typically JavaScript)", §3).
//
// The emitted tag is self-contained ES5 (2019-era webview compatible):
// it plants the monitoring pixels as absolutely-positioned 1×1 elements
// animated with requestAnimationFrame, counts per-pixel frame callbacks,
// classifies pixels against the fps threshold every sample interval,
// estimates the exposed area with the same rectangle-inference algorithm
// as AreaEstimator (the Go and JS implementations are kept in lockstep
// by TestGenerateJS*), runs the area/dwell state machine, and reports
// loaded / in-view / out-of-view via navigator.sendBeacon with an image
// fallback.
//
// endpoint is the collection server's ingest URL (POST /v1/events);
// size is the creative's dimensions, needed to bake the pixel layout in.
func GenerateJS(cfg Config, endpoint string, size geom.Size) string {
	cfg = cfg.withDefaults()
	points := Points(cfg.Layout, cfg.PixelCount, size)

	var coords strings.Builder
	for i, p := range points {
		if i > 0 {
			coords.WriteString(",")
		}
		fmt.Fprintf(&coords, "[%.2f,%.2f]", p.X, p.Y)
	}

	criteria := "null"
	if cfg.Criteria != nil {
		criteria = fmt.Sprintf("{area:%.4f,dwellMs:%d}",
			cfg.Criteria.AreaFraction, cfg.Criteria.Dwell.Milliseconds())
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, jsHeader, cfg.Layout, cfg.PixelCount, cfg.FPSThreshold)
	fmt.Fprintf(&sb, `(function () {
  'use strict';
  var ENDPOINT = %q;
  var PIXELS = [%s];            // layout: %s, creative %gx%g
  var FPS_THRESHOLD = %g;       // pixels refreshing at >= this are visible
  var SAMPLE_MS = %d;           // evaluation period
  var AD_W = %g, AD_H = %g;
  var CRITERIA_OVERRIDE = %s;   // null -> derive from data-format
`, endpoint, coords.String(), cfg.Layout, size.W, size.H,
		cfg.FPSThreshold, cfg.SampleInterval.Milliseconds(), size.W, size.H, criteria)
	// criteriaFor, from viewability's table: a test per format and, last,
	// display's criteria (Display is 0), which any other name gets too.
	sb.WriteString("\n  function criteriaFor(format) {\n    if (CRITERIA_OVERRIDE) return CRITERIA_OVERRIDE;\n")
	for f := viewability.Format(viewability.NumFormats - 1); f >= viewability.Display; f-- {
		test, c := fmt.Sprintf("if (format === '%s') ", f), viewability.StandardCriteria(f)
		if f == viewability.Display {
			test = ""
		}
		fmt.Fprintf(&sb, "    %sreturn { area: %g, dwellMs: %d };\n", test, c.AreaFraction, c.Dwell.Milliseconds())
	}
	sb.WriteString("  }\n")
	sb.WriteString(jsBody)
	return sb.String()
}

const jsHeader = `/*!
 * q-tag: transparent viewability measurement (CoNEXT'19 reproduction).
 * layout=%v pixels=%d fpsThreshold=%g
 * Deployed inside the creative iframe; requires no cross-origin access.
 */
`

// jsBody is the configuration-independent remainder of the tag. It
// mirrors, in order: adtag pixel creation, the per-pixel fps monitor, the
// rectangle-inference estimator (AreaEstimator.rectInfer / inferEdge /
// nextLevel), and the deployment state machine (deployment.sample).
const jsBody = `
  var script = document.currentScript || (function () {
    var ss = document.getElementsByTagName('script');
    return ss[ss.length - 1];
  })();
  var impressionId = script.getAttribute('data-impression') || '';
  var campaignId = script.getAttribute('data-campaign') || '';
  var criteria = criteriaFor(script.getAttribute('data-format') || 'display');

  function sendBeacon(type) {
    var payload = JSON.stringify({
      impression_id: impressionId,
      campaign_id: campaignId,
      source: 'qtag',
      type: type,
      at: new Date().toISOString()
    });
    if (navigator.sendBeacon && navigator.sendBeacon(ENDPOINT, payload)) return;
    var img = new Image(1, 1); // legacy fallback: GET pixel
    img.src = ENDPOINT + '?e=' + encodeURIComponent(payload);
  }

  // --- monitoring pixels -------------------------------------------------
  // Each pixel is a 1x1 absolutely positioned element whose style is
  // toggled every animation frame; browsers only deliver/paint frames for
  // content they actually render, so the callback rate IS the refresh
  // rate the paper measures.
  var counts = new Array(PIXELS.length);
  var visible = new Array(PIXELS.length);
  for (var i = 0; i < PIXELS.length; i++) counts[i] = 0;

  function plantPixel(idx, x, y) {
    var el = document.createElement('div');
    el.style.cssText = 'position:absolute;width:1px;height:1px;' +
      'pointer-events:none;opacity:0.01;' +
      'left:' + Math.min(x, AD_W - 1) + 'px;top:' + Math.min(y, AD_H - 1) + 'px';
    document.body.appendChild(el);
    var flip = false;
    function frame() {
      counts[idx]++;
      flip = !flip;
      el.style.transform = flip ? 'translateZ(0)' : 'none';
      el.__raf = window.requestAnimationFrame(frame);
    }
    el.__raf = window.requestAnimationFrame(frame);
    return el;
  }

  if (!window.requestAnimationFrame) return; // cannot measure: stay silent
  var els = [];
  for (var p = 0; p < PIXELS.length; p++) {
    els.push(plantPixel(p, PIXELS[p][0], PIXELS[p][1]));
  }
  sendBeacon('loaded');

  // --- rectangle-inference area estimator --------------------------------
  function nextLevel(coord, dir, yAxis) {
    var best = Infinity;
    for (var i = 0; i < PIXELS.length; i++) {
      var c = yAxis ? PIXELS[i][1] : PIXELS[i][0];
      var d = dir * (c - coord);
      if (d > 1e-9 && d < best) best = d;
    }
    return best === Infinity ? 0 : best;
  }

  function inferEdge(edge, perpLo, perpHi, dir, yAxis) {
    var adMax = yAxis ? AD_H : AD_W;
    var constraint = Infinity;
    for (var i = 0; i < PIXELS.length; i++) {
      if (visible[i]) continue;
      var coord = yAxis ? PIXELS[i][1] : PIXELS[i][0];
      var perp = yAxis ? PIXELS[i][0] : PIXELS[i][1];
      if (perp < perpLo - 1e-9 || perp > perpHi + 1e-9) continue;
      var d = dir * (coord - edge);
      if (d > 1e-9 && d < constraint) constraint = d;
    }
    if (constraint === Infinity) return dir > 0 ? adMax : 0;
    var expansion = constraint / 2;
    var next = nextLevel(edge, dir, yAxis);
    if (next > 0 && next / 2 < expansion) expansion = next / 2;
    return edge + dir * expansion;
  }

  function estimate() {
    var minX = Infinity, maxX = -Infinity, minY = Infinity, maxY = -Infinity, any = false;
    for (var i = 0; i < PIXELS.length; i++) {
      if (!visible[i]) continue;
      any = true;
      if (PIXELS[i][0] < minX) minX = PIXELS[i][0];
      if (PIXELS[i][0] > maxX) maxX = PIXELS[i][0];
      if (PIXELS[i][1] < minY) minY = PIXELS[i][1];
      if (PIXELS[i][1] > maxY) maxY = PIXELS[i][1];
    }
    if (!any) return 0;
    var xHi = inferEdge(maxX, minY, maxY, +1, false);
    var xLo = inferEdge(minX, minY, maxY, -1, false);
    var yHi = inferEdge(maxY, minX, maxX, +1, true);
    var yLo = inferEdge(minY, minX, maxX, -1, true);
    var w = Math.min(xHi, AD_W) - Math.max(xLo, 0);
    var h = Math.min(yHi, AD_H) - Math.max(yLo, 0);
    if (w <= 0 || h <= 0) return 0;
    var frac = (w * h) / (AD_W * AD_H);
    return frac > 1 ? 1 : frac;
  }

  // --- viewability state machine ------------------------------------------
  var inRun = false, runStart = 0, inViewSent = false, outSent = false;
  var timer = window.setInterval(function () {
    var now = Date.now();
    for (var i = 0; i < PIXELS.length; i++) {
      visible[i] = (counts[i] * 1000 / SAMPLE_MS) >= FPS_THRESHOLD;
      counts[i] = 0;
    }
    var frac = estimate();
    if (frac >= criteria.area) {
      if (!inRun) { inRun = true; runStart = now - SAMPLE_MS; }
      if (!inViewSent && now - runStart >= criteria.dwellMs) {
        inViewSent = true;
        sendBeacon('in-view');
      }
      return;
    }
    inRun = false;
    if (inViewSent && !outSent) {
      outSent = true;
      sendBeacon('out-of-view');
      window.clearInterval(timer);
      for (var j = 0; j < els.length; j++) {
        window.cancelAnimationFrame(els[j].__raf);
      }
    }
  }, SAMPLE_MS);
})();
`
