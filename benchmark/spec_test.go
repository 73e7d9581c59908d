package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON: what this program emits is spec.go's
// tables, so holding them to BENCHMARK.json and to the driver's limits
// holds the emitted names to both.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var file benchmarkJSON
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(raw))
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec.go says %d", file.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", file.Paths)
	}

	var declared []workloadDecl
	for _, w := range workloads {
		declared = append(declared, workloadDecl{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(file.Workloads, declared) {
		t.Errorf("workloads differ:\n file %+v\n spec %+v", file.Workloads, declared)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n spec %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n spec %+v", file.PerLayer, perLayer)
	}
}

func TestSpecWithinDriverLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	direction := func(d metricDecl) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	var setup metricDecl
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		direction(d)
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be declared in s, lower is better; have %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	for _, d := range perLayer {
		check("per-layer", d.Name)
		direction(d)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{5, 1, 4, 2, 8, 7, 3}, 2, 4, 7},
	} {
		q1, q2, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1)+math.Abs(q2-c.q2)+math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g %g %g, Python gives %g %g %g", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
