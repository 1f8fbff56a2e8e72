package main

import (
	"strings"
	"testing"
)

const exposition = `# HELP cuisinevol_cache_hits_total Result-cache hits.
# TYPE cuisinevol_cache_hits_total counter
cuisinevol_cache_hits_total 10
cuisinevol_http_requests_total{endpoint="/v1/mine",code="200"} 7
cuisinevol_http_requests_total{endpoint="/v1/overrep",code="200"} 3
cuisinevol_http_request_duration_seconds_bucket{endpoint="/v1/mine",le="+Inf"} 7
cuisinevol_chaos_injected_total{fault="slow down"} 2

cuisinevol_corpus_store_bytes 1.5e+06
`

func TestParseExposition(t *testing.T) {
	s, err := parseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cuisinevol_cache_hits_total":                                                    10,
		`cuisinevol_http_requests_total{endpoint="/v1/mine",code="200"}`:                 7,
		`cuisinevol_http_request_duration_seconds_bucket{endpoint="/v1/mine",le="+Inf"}`: 7,
		`cuisinevol_chaos_injected_total{fault="slow down"}`:                             2,
		"cuisinevol_corpus_store_bytes":                                                  1.5e6,
	}
	if len(s) != len(want)+1 {
		t.Errorf("parsed %d series, want %d", len(s), len(want)+1)
	}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("%s = %v, want %v", k, s[k], v)
		}
	}
	if got := s.family("cuisinevol_http_requests_total"); got != 10 {
		t.Errorf("family sum = %v, want 10 across both label sets", got)
	}
	if got := s.family("cuisinevol_http_request"); got != 0 {
		t.Errorf("a name prefix matched another family: %v", got)
	}
	if _, err := parseExposition(strings.NewReader("novalue\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestDeltas(t *testing.T) {
	before := series{"a": 1, `b{x="1"}`: 5}
	after := series{"a": 4, `b{x="1"}`: 5, `b{x="2"}`: 2}
	d := delta(before, after)
	if d["a"] != 3 || d[`b{x="1"}`] != 0 || d[`b{x="2"}`] != 2 {
		t.Fatalf("delta = %v", d)
	}
	sum := sumDeltas([]series{before, {"a": 10}}, []series{after, {"a": 11}})
	if sum["a"] != 4 || sum.family("b") != 2 {
		t.Fatalf("sumDeltas = %v", sum)
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Fatal("ratio")
	}
}
