package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesSchema keeps BENCHMARK.json at the repository
// root in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestReportPrintsEveryMetric(t *testing.T) {
	r := newReport()
	if _, err := r.metricsFor(false); err == nil {
		t.Error("an untraced report without end-to-end values printed")
	}
	for _, d := range endToEnd {
		r.e2e[d.Name] = 1
	}
	m, err := r.metricsFor(false)
	if err != nil || len(m) != len(endToEnd) {
		t.Fatalf("untraced metrics: %d of %d, err %v", len(m), len(endToEnd), err)
	}
	m, err = r.metricsFor(true)
	if err != nil || len(m) != len(perLayer) {
		t.Fatalf("traced metrics: %d of %d, err %v", len(m), len(perLayer), err)
	}
}
