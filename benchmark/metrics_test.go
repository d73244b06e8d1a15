package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; DisallowUnknownFields makes an
// extra key a failure, as the driver does.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Command) == 0 || len(f.Command) > 32 {
		t.Errorf("command = %v", f.Command)
	}

	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the file, %d in the benchmark", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the file, %q in the benchmark", i, w.Name, workloadNames[i])
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no driver", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the benchmark", len(f.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	setup := false
	for i, d := range f.EndToEnd {
		if d != endToEnd[i] {
			t.Errorf("end_to_end[%d]: file %+v, benchmark %+v", i, d, endToEnd[i])
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
		seen[d.Name] = true
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the benchmark (limit 128)", len(f.PerLayer), len(perLayer))
	}
	for i, d := range f.PerLayer {
		if d.Name != perLayer[i].Name || d.Unit != perLayer[i].Unit || d.Better != perLayer[i].Better {
			t.Errorf("per_layer[%d]: file %+v, benchmark %+v", i, d, perLayer[i])
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] && d.Bound == 0 {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	m := metricSet{}
	for i, d := range endToEnd {
		m.set(d.Name, float64(i)+0.123456789)
	}
	m.set("go.cpu_s", 1) // a per-layer value must not leak into the end-to-end line
	line, err := json.Marshal(outcome{Correct: true, Attempted: 10, Failed: 1, metrics: m, defs: endToEnd})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", got)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed, want %d", len(metrics), len(endToEnd))
	}
	for i, d := range endToEnd {
		v, ok := metrics[d.Name]
		if !ok || v.Unit != d.Unit || v.Value != float64(i)+0.123456789 {
			t.Errorf("%s round-tripped as %+v", d.Name, v)
		}
	}

	m.set("wall_s", math.NaN())
	if _, err := json.Marshal(outcome{Correct: true, Attempted: 1, metrics: m, defs: endToEnd}); err == nil {
		t.Error("a NaN metric was printed")
	}
	m.set("not.a.metric", 1)
	if s := m.strays(); len(s) != 1 || s[0] != "not.a.metric" {
		t.Errorf("strays = %v", s)
	}
}
