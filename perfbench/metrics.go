package main

import (
	"fmt"
	"sort"
	"sync"
)

// metricDef names one reported metric. The lists below are the
// benchmark's schema; BENCHMARK.json at the repository root records the
// same names, units and directions (metrics_test.go keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are what a user of the system sees, reported by untraced
// runs (-trace 0). Every workload reports every one of them; the
// operation they time is the workload's unit of work (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_mean_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer take one request or run apart, reported by traced runs
// (-trace 1). A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"client.eval_p50_ms", "ms", "lower"},
	{"client.eval_p90_ms", "ms", "lower"},
	{"client.table_p50_ms", "ms", "lower"},
	{"client.table_p90_ms", "ms", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"swserve.handler_ms", "ms", "lower"},
	{"swserve.client_overhead_ms", "ms", "lower"},
	{"swserve.response_bytes", "bytes", "lower"},
	{"swserve.decode_us", "us", "lower"},
	{"swserve.encode_us", "us", "lower"},
	{"core.new_backend_us.behavioral", "us", "lower"},
	{"core.new_backend_us.micromag", "us", "lower"},
	{"core.fingerprint_us", "us", "lower"},
	{"core.micromag_setup_ms", "ms", "lower"},
	{"core.calibrate_i3_s", "s", "lower"},
	{"engine.eval_tiered_us", "us", "lower"},
	{"engine.tier_share.cache", "ratio", "higher"},
	{"engine.tier_share.disk", "ratio", "higher"},
	{"engine.tier_share.surrogate", "ratio", "higher"},
	{"engine.tier_share.behavioral", "ratio", "lower"},
	{"engine.tier_share.micromag", "ratio", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.queue_wait_ms", "ms", "lower"},
	{"engine.disk_writes", "count", "lower"},
	{"engine.disk_put_ms", "ms", "lower"},
	{"surrogate.evals", "count", "higher"},
	{"surrogate.eval_us", "us", "lower"},
	{"surrogate.build_s", "s", "lower"},
	{"surrogate.admitted.xor", "bool", "higher"},
	{"surrogate.admitted.maj3", "bool", "higher"},
	{"runhistory.records", "count", "higher"},
	{"runhistory.append_us", "us", "lower"},
	{"runhistory.bytes_per_record", "bytes", "lower"},
	{"llg.steps", "count", "lower"},
	{"llg.steps_per_s", "1/s", "higher"},
	{"llg.transient_s", "s", "lower"},
	{"llg.band_us", "us", "lower"},
	{"detect.lockin_ms", "ms", "lower"},
	{"checkpoint.pairs", "count", "lower"},
	{"checkpoint.bytes_per_pair", "bytes", "lower"},
	{"checkpoint.save_ms", "ms", "lower"},
	{"checkpoint.resume_ms", "ms", "lower"},
	{"trace.latency_mean_ms", "ms", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},
	{"error_rate", "ratio", "lower"},
}

// maxFailures bounds how many failure messages a report keeps; the
// count itself is exact.
const maxFailures = 20

// report accumulates one run's outcome: every operation attempted, every
// one that failed or answered wrongly, and the metric values. Safe for
// concurrent use.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	// verdicts records facts that are data, not failures (surrogate
	// admission states); printed with the provenance.
	verdicts map[string]string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, verdicts: map[string]string{}}
}

// op records one attempted operation; err non-nil counts it as failed.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// setLayer sets per-layer metric name.
func (r *report) setLayer(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = v
	r.mu.Unlock()
}

// metricsFor returns the metric set one run prints: every end-to-end
// metric untraced, every per-layer metric traced. A missing end-to-end
// value is a benchmark bug; a missing per-layer value is a layer the
// workload does not exercise and reads 0.
func (r *report) metricsFor(traced bool) (map[string]any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]any{}
	if !traced {
		for _, d := range endToEnd {
			v, ok := r.e2e[d.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s not measured", d.Name)
			}
			out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		}
		return out, nil
	}
	r.layer["error_rate"] = ratio(float64(r.failed), float64(r.attempted))
	for _, d := range perLayer {
		out[d.Name] = map[string]any{"value": r.layer[d.Name], "unit": d.Unit}
	}
	return out, nil
}

// table renders the run's metrics as aligned name/value/unit lines.
func (r *report) table(traced bool) []string {
	defs := endToEnd
	vals := r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	lines := make([]string, 0, len(defs))
	for _, d := range defs {
		lines = append(lines, fmt.Sprintf("  %-32s %14.6g %s", d.Name, vals[d.Name], d.Unit))
	}
	return lines
}

// sortedKeys returns m's keys in order (stable output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
