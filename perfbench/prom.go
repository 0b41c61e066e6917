package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: series key
// (metric name plus its raw label block, exactly as exposed) to value.
type promSample map[string]float64

// parsePromText parses the text exposition format swserve serves at
// /metrics. Comment lines are skipped; a sample line is
// `name{labels} value` or `name value`.
func parsePromText(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return out, nil
}

// diff returns after − before per series. A series missing from before
// (registered lazily during the interval) counts from 0.
func (after promSample) diff(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the values of every series of metric name whose label block
// holds all the given `key="value"` pairs.
func (p promSample) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range p {
		metric, lbl := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			metric, lbl = k[:i], k[i:]
		}
		if metric != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, "{"+l) && !strings.Contains(lbl, ","+l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// histMean is the mean observation of histogram name over the series
// matching labels: Δ_sum / Δ_count on a diffed sample, 0 when nothing
// was observed.
func (p promSample) histMean(name string, labels ...string) float64 {
	return ratio(p.sum(name+"_sum", labels...), p.sum(name+"_count", labels...))
}

// label renders one label matcher for sum and histMean.
func label(key, value string) string { return key + `="` + value + `"` }
