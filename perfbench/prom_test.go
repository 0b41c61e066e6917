package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP swserve_http_request_seconds request latency
# TYPE swserve_http_request_seconds histogram
swserve_http_request_seconds_bucket{path="/v1/eval",le="0.001"} 3
swserve_http_request_seconds_sum{path="/v1/eval"} 0.5
swserve_http_request_seconds_count{path="/v1/eval"} 10
swserve_http_request_seconds_sum{path="/v1/evalx"} 7
swserve_http_request_seconds_count{path="/v1/evalx"} 7
spinwave_engine_disk_writes_total{result="ok"} 4
spinwave_engine_disk_writes_total{result="error"} 1
spinwave_engine_cache_hits_total 100
`

const promAfter = `swserve_http_request_seconds_bucket{path="/v1/eval",le="0.001"} 9
swserve_http_request_seconds_sum{path="/v1/eval"} 2.5
swserve_http_request_seconds_count{path="/v1/eval"} 20
swserve_http_request_seconds_sum{path="/v1/evalx"} 9
swserve_http_request_seconds_count{path="/v1/evalx"} 8
spinwave_engine_disk_writes_total{result="ok"} 10
spinwave_engine_disk_writes_total{result="error"} 1
spinwave_engine_cache_hits_total 160
spinwave_llg_steps_total 42
`

func TestPromDiff(t *testing.T) {
	before, err := parsePromText(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parsePromText(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.diff(before)
	if got := d.sum("spinwave_engine_cache_hits_total"); got != 60 {
		t.Errorf("unlabeled counter diff = %v, want 60", got)
	}
	if got := d.sum("spinwave_engine_disk_writes_total", label("result", "ok")); got != 6 {
		t.Errorf("labeled counter diff = %v, want 6", got)
	}
	if got := d.sum("spinwave_engine_disk_writes_total"); got != 6 {
		t.Errorf("counter diff over all labels = %v, want 6", got)
	}
	if got := d.sum("spinwave_llg_steps_total"); got != 42 {
		t.Errorf("series registered during the interval = %v, want 42 (counted from 0)", got)
	}
	// The path label must match exactly: /v1/evalx is another series.
	if got := d.histMean("swserve_http_request_seconds", label("path", "/v1/eval")); got != 0.2 {
		t.Errorf("histogram mean over the diff = %v, want 0.2", got)
	}
	if got := d.histMean("spinwave_engine_surrogate_seconds"); got != 0 {
		t.Errorf("mean of an unobserved histogram = %v, want 0", got)
	}
	if _, err := parsePromText(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}
