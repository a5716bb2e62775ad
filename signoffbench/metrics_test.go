package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// Limits of the benchmark contract.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkCatalogue validates a metric list against the contract's limits.
func checkCatalogue(defs []metricDef, limit int, bounded bool) error {
	if len(defs) == 0 || len(defs) > limit {
		return fmt.Errorf("%d metrics, want 1 to %d", len(defs), limit)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		switch {
		case !namePattern.MatchString(d.Name):
			return fmt.Errorf("metric name %q does not match %s", d.Name, namePattern)
		case seen[d.Name]:
			return fmt.Errorf("metric name %q used twice", d.Name)
		case !unitPattern.MatchString(d.Unit):
			return fmt.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitPattern)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %s: better is %q", d.Name, d.Better)
		case bounded && (d.Bound <= 0 || d.Bound > 0.25):
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		case !bounded && d.Bound != 0:
			return fmt.Errorf("metric %s: per-layer metrics carry no bound", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestCataloguesMeetTheLimits(t *testing.T) {
	if err := checkCatalogue(endToEnd, maxEndToEnd, true); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := checkCatalogue(perLayer(), maxPerLayer, false); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.Bound)
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower" || d.Bound != largest) {
			t.Errorf("setup_s = %+v, want unit s, lower, the largest bound %v", d, largest)
		}
	}
}

func TestCheckCatalogueRejects(t *testing.T) {
	ok := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	many := func(n int) []metricDef {
		var out []metricDef
		for i := 0; i < n; i++ {
			out = append(out, metricDef{Name: fmt.Sprintf("m%d", i), Unit: "s", Better: "lower"})
		}
		return out
	}
	for _, c := range []struct {
		name    string
		defs    []metricDef
		limit   int
		bounded bool
	}{
		{"none", nil, 16, true},
		{"17 end-to-end", append(many(16), metricDef{Name: "x", Unit: "s", Better: "lower"}), 16, false},
		{"129 per-layer", many(129), 128, false},
		{"space in name", []metricDef{{Name: "wall s", Unit: "s", Better: "lower", Bound: 0.1}}, 16, true},
		{"leading dot", []metricDef{{Name: ".wall", Unit: "s", Better: "lower", Bound: 0.1}}, 16, true},
		{"65-character name", []metricDef{{Name: strings.Repeat("a", 65), Unit: "s", Better: "lower", Bound: 0.1}}, 16, true},
		{"duplicate", []metricDef{ok, ok}, 16, true},
		{"bad unit", []metricDef{{Name: "a", Unit: "m s", Better: "lower", Bound: 0.1}}, 16, true},
		{"bad better", []metricDef{{Name: "a", Unit: "s", Better: "less", Bound: 0.1}}, 16, true},
		{"bound too wide", []metricDef{{Name: "a", Unit: "s", Better: "lower", Bound: 0.3}}, 16, true},
		{"missing bound", []metricDef{{Name: "a", Unit: "s", Better: "lower"}}, 16, true},
		{"per-layer bound", []metricDef{ok}, 128, false},
	} {
		if err := checkCatalogue(c.defs, c.limit, c.bounded); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := checkCatalogue(many(128), 128, false); err != nil {
		t.Errorf("128 per-layer metrics rejected: %v", err)
	}
	for _, name := range []string{"cpu_share.catg.bfm", "regress.cache_load.p50_ms", "0x", "a-b", strings.Repeat("z", 64)} {
		if !namePattern.MatchString(name) {
			t.Errorf("name %q rejected", name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the repository's BENCHMARK.json in
// step with what the program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer()) {
		t.Errorf("per_layer = %+v\nwant %+v", bj.PerLayer, perLayer())
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}
