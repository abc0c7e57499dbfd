package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Comparator mode: -compare base,new reads two files of perfbench output
// (the concatenated stdout of any number of runs; only the
// "perfbench-record " lines are read) and prints one row per workload and
// metric. Timed metrics get each side's median and quartiles, the change of
// the medians, and a verdict against the metric's bound from
// BENCHMARK.json: "unresolved" when either side's spread (interquartile
// range over median) is wider than the bound. Deterministic counters are
// diffed exactly, run by run for the seeds both sides measured; any
// difference makes the command exit non-zero.

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no %q lines", path, strings.TrimSpace(recordPrefix))
	}
	return out, nil
}

// side groups one file's records by workload (traced runs apart).
type side struct {
	values   map[string]map[string][]float64       // group -> metric -> values
	counters map[string]map[string]map[int64]int64 // group -> counter -> seed -> value
	units    map[string]string                     // metric -> unit
}

func group(r record) string {
	if r.Trace {
		return r.Workload + " (traced)"
	}
	return r.Workload
}

func collectSide(recs []record) side {
	s := side{values: map[string]map[string][]float64{}, counters: map[string]map[string]map[int64]int64{}, units: map[string]string{}}
	for _, r := range recs {
		g := group(r)
		if s.values[g] == nil {
			s.values[g] = map[string][]float64{}
			s.counters[g] = map[string]map[int64]int64{}
		}
		for name, m := range r.Metrics {
			s.values[g][name] = append(s.values[g][name], m.Value)
			s.units[name] = m.Unit
		}
		for name, v := range r.Counters {
			if s.counters[g][name] == nil {
				s.counters[g][name] = map[int64]int64{}
			}
			s.counters[g][name][r.Seed] = v
		}
	}
	return s
}

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func compareFiles(w io.Writer, s *spec, basePath, newPath string) error {
	baseRecs, err := readRecords(basePath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	base, cur := collectSide(baseRecs), collectSide(newRecs)
	bounds := map[string]specMetric{}
	for _, m := range s.EndToEnd {
		bounds[m.Name] = m
	}

	var groups []string
	for g := range base.values {
		if cur.values[g] != nil {
			groups = append(groups, g)
		}
	}
	sort.Strings(groups)
	fmt.Fprintf(w, "%-24s %-32s %-6s %30s %30s %9s  %s\n", "workload", "metric", "unit", "base median [Q1, Q3] n", "new median [Q1, Q3] n", "change", "verdict")
	drift := 0
	for _, g := range groups {
		var names []string
		for n := range base.values[g] {
			if cur.values[g][n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			a, b := base.values[g][n], cur.values[g][n]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			change := 0.0
			if a2 != 0 {
				change = (b2 - a2) / math.Abs(a2)
			}
			fmt.Fprintf(w, "%-24s %-32s %-6s %30s %30s %+8.1f%%  %s\n", g, n, base.units[n],
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", a2, a1, a3, len(a)),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", b2, b1, b3, len(b)),
				100*change, verdict(bounds, n, a, b, change))
		}
		var counters []string
		for n := range base.counters[g] {
			counters = append(counters, n)
		}
		sort.Strings(counters)
		for _, n := range counters {
			seeds, diffs := 0, []string{}
			for seed, va := range base.counters[g][n] {
				vb, ok := cur.counters[g][n][seed]
				if !ok {
					continue
				}
				seeds++
				if va != vb {
					diffs = append(diffs, fmt.Sprintf("seed %d: %d -> %d", seed, va, vb))
				}
			}
			status := fmt.Sprintf("exact over %d seeds", seeds)
			if seeds == 0 {
				status = "no common seeds"
			}
			if len(diffs) > 0 {
				sort.Strings(diffs)
				status = "DRIFT " + strings.Join(diffs, ", ")
				drift++
			}
			fmt.Fprintf(w, "%-24s %-32s %-6s %s\n", g, n, "count", status)
		}
	}
	if drift > 0 {
		return fmt.Errorf("%d deterministic counters drifted", drift)
	}
	return nil
}

// verdict judges one timed metric against its end-to-end bound. Per-layer
// metrics have no bound and get none.
func verdict(bounds map[string]specMetric, name string, a, b []float64, change float64) string {
	m, ok := bounds[name]
	if !ok {
		return "-"
	}
	if sa, sb := spread(a), spread(b); sa > m.Bound || sb > m.Bound {
		return fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)", 100*sa, 100*sb, 100*m.Bound)
	}
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > m.Bound:
		return fmt.Sprintf("worse beyond bound %.0f%%", 100*m.Bound)
	case worse < -m.Bound:
		return fmt.Sprintf("better beyond bound %.0f%%", 100*m.Bound)
	default:
		return fmt.Sprintf("within bound %.0f%%", 100*m.Bound)
	}
}
