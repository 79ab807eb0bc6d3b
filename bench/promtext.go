package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// metricSet is one scrape of GET /metrics: series name (with its
// label block, exactly as exposed) → value.
type metricSet map[string]float64

// parseMetrics reads Prometheus text exposition. Comment lines and
// exemplar suffixes are skipped; a malformed line is an error, because
// a silent zero would read as "this layer did no work".
func parseMetrics(r io.Reader) (metricSet, error) {
	out := metricSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 { // OpenMetrics exemplar
			line = line[:i]
		}
		// The series name ends at the last space outside the label block.
		cut := strings.LastIndexByte(line, ' ')
		if j := strings.LastIndexByte(line, '}'); j > cut {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		if cut <= 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// delta returns after − before for every series of after; a series that
// is new in after counts from zero.
func (after metricSet) delta(before metricSet) metricSet {
	out := make(metricSet, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumPrefix adds every series whose name (before any label block) is
// name, so labelled families total without knowing their label values.
func (m metricSet) sumPrefix(name string) float64 {
	total := 0.0
	for k, v := range m {
		base, _, _ := strings.Cut(k, "{")
		if base == name {
			total += v
		}
	}
	return total
}

// add returns the series-wise sum of two scrapes (a cluster's total).
func (m metricSet) add(o metricSet) metricSet {
	out := make(metricSet, len(m)+len(o))
	for k, v := range m {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// scrape fetches and parses one server's /metrics.
func scrape(s *server) (metricSet, error) {
	resp, err := scrapeClient.Get(s.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}
