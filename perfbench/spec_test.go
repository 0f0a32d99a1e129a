package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON pins the metric names and units the runs
// report to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	r := readResources()
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: the run reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is declared but not reported", kind, w.Name)
			case m.Unit != w.Unit:
				t.Errorf("%s: %s reported in %s, declared in %s", kind, w.Name, m.Unit, w.Unit)
			}
		}
	}
	check("end_to_end", endToEnd(&tally{attempted: 1}, []float64{1}, time.Second, r, r, 1), spec.EndToEnd)
	check("per_layer", layerMetrics(&ledger{}, &replayStats{}, 0), spec.PerLayer)
}
