package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary act as the SUT child process, which Run
// starts by re-executing itself with "sut".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		os.Exit(sutMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestSmokeWorkloads runs every workload end to end at smoke size, traced
// (which measures an untraced half first), and checks the result line.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end smoke runs")
	}
	root := t.TempDir()
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			var report strings.Builder
			line, err := Run(Options{Root: root, Workload: w, Seed: 3, Seconds: 4, Trace: true, Size: "smoke"}, &report)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]Metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("gate: %s\n%s", line, report.String())
			}
			if len(out.Metrics) != len(layerDefs) {
				t.Fatalf("traced run reported %d metrics, want %d", len(out.Metrics), len(layerDefs))
			}
			for _, m := range namedMetrics {
				if !strings.Contains(report.String(), m.Name) {
					t.Errorf("report lacks %s", m.Name)
				}
			}
			if !strings.Contains(report.String(), "correct=true") {
				t.Errorf("report: %s", report.String())
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// here in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	same := func(kind string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, code has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerDefs)
}
