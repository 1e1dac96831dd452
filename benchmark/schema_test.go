package main

import (
	"regexp"
	"testing"
)

// TestSchema keeps BENCHMARK.json, the contract a driver reads, in step
// with the tables the harness reports from, and inside the contract's
// limits.
func TestSchema(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if n := len(c.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d, the limit is 16", n, len(endToEnd))
	}
	hasSetup := false
	for i, e := range c.EndToEnd {
		checkName("end-to-end", e.Name)
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness",
				i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better is %q", e.Name, e.Better)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			hasSetup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s [s], lower is better")
	}

	if n := len(c.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d, the limit is 128", n, len(perLayer))
	}
	for i, p := range c.PerLayer {
		checkName("per-layer", p.Name)
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness",
				i, p.Name, p.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(p.Unit) {
			t.Errorf("%s: unit %q", p.Name, p.Unit)
		}
		if p.Better != "lower" && p.Better != "higher" {
			t.Errorf("%s: better is %q", p.Name, p.Better)
		}
	}

	for _, row := range tracedSpans {
		if !seen[row] {
			t.Errorf("traced span row %q is not a per-layer metric", row)
		}
	}
	for _, x := range exactRows {
		if !seen[x.row] || !seen[x.workload] {
			t.Errorf("exact row %s/%s names an unknown workload or metric", x.workload, x.row)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
}

// TestSeal: a metric set with a missing or an unknown name is refused,
// so a run can only report exactly the tables' names.
func TestSeal(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "count"}}
	got, err := metricSet{"a": 1.5, "b": 2}.seal(defs)
	if err != nil || got["a"] != (metric{1.5, "ms"}) || got["b"] != (metric{2, "count"}) {
		t.Errorf("seal = %v, %v", got, err)
	}
	if _, err := (metricSet{"a": 1}).seal(defs); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := (metricSet{"a": 1, "b": 2, "c": 3}).seal(defs); err == nil {
		t.Error("an unknown metric was accepted")
	}
}
