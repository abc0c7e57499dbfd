package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestTinyWorkloads runs every workload at tiny scale in both modes and
// checks what the benchmark promises: no failed check, every metric
// BENCHMARK.json names emitted with its unit, and in the traced run the
// workload's layer times plus unattributed_ms equal the traced wall time.
// The tiny serve-mix issues no GETs, so no read overlaps a step (the
// known Session race stays out of this test).
func TestTinyWorkloads(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/e2e", true: "/traced"}[trace], func(t *testing.T) {
				o, err := workloads[name](runConfig{seed: 7, seconds: 0.3, trace: trace, tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				if o.failed > 0 || o.attempted == 0 {
					t.Errorf("%d of %d operations failed", o.failed, o.attempted)
				}
				if err := checkNames(s, trace, o.metrics); err != nil {
					t.Error(err)
				}
				if !trace {
					for n, m := range o.metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end %s = %v, want > 0", n, m.Value)
						}
					}
					return
				}
				wall := o.metrics["wall_ms"].Value
				total := o.metrics["unattributed_ms"].Value
				for _, n := range partitions[name] {
					total += o.metrics[n].Value
				}
				if wall <= 0 || math.Abs(total-wall) > 1e-9*wall {
					t.Errorf("layers + unattributed = %v ms, wall %v ms", total, wall)
				}
				if u := o.metrics["unattributed_ms"].Value; u < -0.01*wall || u > wall {
					t.Errorf("unattributed %v ms outside [0, wall %v ms]", u, wall)
				}
			})
		}
	}
}

// TestSpecMatchesTables pins BENCHMARK.json to the metric tables the
// program emits from, name by name and unit by unit.
func TestSpecMatchesTables(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, spec []specMetric, table []struct{ name, unit string }) {
		got := map[string]string{}
		for _, m := range spec {
			got[m.Name] = m.Unit
		}
		if len(got) != len(table) || len(spec) != len(table) {
			t.Errorf("%s: spec lists %d metrics, program %d", kind, len(spec), len(table))
		}
		for _, m := range table {
			if got[m.name] != m.unit {
				t.Errorf("%s %s: spec unit %q, program %q", kind, m.name, got[m.name], m.unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, e2eMetrics)
	check("per_layer", s.PerLayer, layerMetrics)
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("spec workload %q has no implementation", w.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompareExactCounters checks the comparator accepts identical result
// sets and flags a drifted counter.
func TestCompareExactCounters(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	line := func(seed, captures string) string {
		return recordPrefix + `{"workload":"sim-ships","seed":` + seed + `,"trace":false,"metrics":{"work_per_s":{"value":4,"unit":"1/s"}},"counters":{"captures":` + captures + "}}\n"
	}
	a := write("a", line("1", "10")+line("2", "11"))
	b := write("b", line("1", "10")+line("2", "11"))
	c := write("c", line("1", "10")+line("2", "12"))
	if err := compareFiles(io.Discard, s, a, b); err != nil {
		t.Errorf("identical sets: %v", err)
	}
	if err := compareFiles(io.Discard, s, a, c); err == nil {
		t.Error("a drifted counter was not reported")
	}
}
