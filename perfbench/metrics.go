package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
)

// series maps a Prometheus exposition series — the metric name plus its
// label set exactly as printed, e.g.
// `cuisinevol_http_requests_total{endpoint="/v1/mine",code="200"}` — to
// its value.
type series map[string]float64

// parseExposition reads Prometheus text format. Comment and blank lines
// are skipped; the value is the last space-separated field, so label
// values may contain spaces.
func parseExposition(r io.Reader) (series, error) {
	out := make(series)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// scrape reads /metrics from an in-process handler.
func scrape(h http.Handler) (series, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("metrics: /metrics answered %d", rec.Code)
	}
	return parseExposition(rec.Body)
}

// scrapeAll scrapes every node and returns one series set per node.
func scrapeAll(nodes []http.Handler) ([]series, error) {
	out := make([]series, len(nodes))
	for i, h := range nodes {
		s, err := scrape(h)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// delta returns after minus before for every series in after; a series
// absent before counts from 0.
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumDeltas sums per-node deltas into one cluster-wide set.
func sumDeltas(before, after []series) series {
	out := make(series)
	for i := range after {
		for k, v := range delta(before[i], after[i]) {
			out[k] += v
		}
	}
	return out
}

// family sums every series of one metric family, across label sets.
func (s series) family(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
