// Command eeinspect is the offline flight-data analyzer: it ingests
// flight-recorder dumps (from eagleeye -flight-out, GET
// /v1/sessions/{id}/flight, or the GET /debug/flight aggregate) and
// NDJSON frame traces (from eagleeye -trace or ?trace=ndjson), and
// explains where the time went after the fact:
//
//   - per-stage latency percentiles (p50/p90/p99/max) across every
//     recorded frame,
//   - critical-path breakdowns of the slowest frames, span by span,
//   - anomaly summaries: what was pinned, why, and under which request.
//
// Usage:
//
//	eeinspect flight.json
//	eeinspect -top 10 flight.json trace.ndjson
//	eeinspect -require-anomaly flight.json   # exit 1 if nothing pinned
//
// File kinds are autodetected: a JSON object with "sessions" is a
// /debug/flight aggregate, one with "schema" and "recent" is a single
// dump, anything line-oriented is an NDJSON trace.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"eagleeye/internal/obs"
)

func main() {
	var (
		top     = flag.Int("top", 5, "critical-path breakdowns for the N slowest frames")
		require = flag.Bool("require-anomaly", false, "exit 1 unless at least one pinned anomaly is present")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: eeinspect [-top N] [-require-anomaly] <flight.json|trace.ndjson>...")
		os.Exit(2)
	}

	rep := &report{top: *top, warn: os.Stderr}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err == nil {
			err = rep.ingest(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "eeinspect: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	rep.print(os.Stdout)

	if *require && rep.pinnedTotal == 0 {
		fmt.Fprintln(os.Stderr, "eeinspect: no pinned anomaly found")
		os.Exit(1)
	}
}

// traceLine is the subset of the simulator's NDJSON trace record that the
// analyzer uses.
type traceLine struct {
	Group    int     `json:"group"`
	Frame    int     `json:"frame"`
	SchedMS  float64 `json:"sched_ms"`
	Targets  int     `json:"targets"`
	Detected int     `json:"detected"`
	Captures int     `json:"captures"`
	Deadline bool    `json:"deadline_met"`
}

type report struct {
	top  int
	warn io.Writer // receives schema-mismatch warnings

	dumps  []obs.FlightDump
	frames []obs.FlightFrame // deduplicated union of every dump's frames
	seen   map[string]bool   // session/seq dedup across recent|slowest|pinned

	pinnedTotal int

	traceLines  int
	traceMissed int
	schedMS     []float64
	targets     int
	detected    int
	captures    int
}

// ingest adds one file's contents to the report: a flight dump, a
// /debug/flight aggregate or an NDJSON trace, told apart by their shape.
func (r *report) ingest(data []byte) error {
	trim := bytes.TrimSpace(data)
	if len(trim) == 0 {
		return fmt.Errorf("empty file")
	}
	if trim[0] == '{' {
		// A flight artifact is one JSON object; an NDJSON trace is one
		// object per line. Disambiguate by decoding the first value and
		// checking whether it consumed the whole file.
		dec := json.NewDecoder(bytes.NewReader(trim))
		var probe struct {
			Schema   int               `json:"schema"`
			Sessions []obs.FlightDump  `json:"sessions"`
			Recent   []json.RawMessage `json:"recent"`
		}
		if err := dec.Decode(&probe); err == nil && !dec.More() {
			if probe.Sessions != nil {
				for _, d := range probe.Sessions {
					r.addDump(d)
				}
				return nil
			}
			if probe.Schema != 0 {
				var d obs.FlightDump
				if err := json.Unmarshal(trim, &d); err != nil {
					return err
				}
				r.addDump(d)
				return nil
			}
		}
	}
	return r.ingestTrace(data)
}

func (r *report) addDump(d obs.FlightDump) {
	if d.Schema != obs.FlightSchema {
		fmt.Fprintf(r.warn, "eeinspect: warning: dump schema %d, tool speaks %d\n", d.Schema, obs.FlightSchema)
	}
	r.dumps = append(r.dumps, d)
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	for _, set := range [][]obs.FlightFrame{d.Recent, d.Slowest, d.Pinned} {
		for _, f := range set {
			key := fmt.Sprintf("%s/%d", f.Session, f.Seq)
			if r.seen[key] {
				continue
			}
			r.seen[key] = true
			r.frames = append(r.frames, f)
		}
	}
	for _, f := range d.Pinned {
		if len(f.Anomalies) > 0 {
			r.pinnedTotal++
		}
	}
}

func (r *report) ingestTrace(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var t traceLine
		if err := json.Unmarshal(line, &t); err != nil {
			return fmt.Errorf("trace line %d: %w", r.traceLines+1, err)
		}
		r.traceLines++
		r.schedMS = append(r.schedMS, t.SchedMS)
		r.targets += t.Targets
		r.detected += t.Detected
		r.captures += t.Captures
		if !t.Deadline {
			r.traceMissed++
		}
	}
	return sc.Err()
}

// percentile returns the nearest-rank percentile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func (r *report) print(w io.Writer) {
	for _, d := range r.dumps {
		name := d.Session
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(w, "session %s: %d frames offered, %d retained", name, d.Frames, len(d.Recent)+len(d.Slowest)+len(d.Pinned))
		if d.PinnedDropped > 0 {
			fmt.Fprintf(w, ", %d pinned dropped", d.PinnedDropped)
		}
		fmt.Fprintln(w)
	}

	if len(r.frames) > 0 {
		r.printStages(w)
		r.printCriticalPaths(w)
		r.printAnomalies(w)
	}
	if r.traceLines > 0 {
		r.printTrace(w)
	}
}

// printStages aggregates span durations by stage/solve name across every
// retained frame and prints a percentile table.
func (r *report) printStages(w io.Writer) {
	byName := make(map[string][]float64)
	var order []string
	var frameDur []float64
	for _, f := range r.frames {
		if f.Group < 0 {
			continue // synthetic event records carry no timing
		}
		frameDur = append(frameDur, ms(f.DurNS))
		for _, s := range f.Spans {
			if s.Kind == "frame" {
				continue
			}
			name := s.Kind + ":" + s.Name
			if _, ok := byName[name]; !ok {
				order = append(order, name)
			}
			byName[name] = append(byName[name], ms(s.DurNS))
		}
	}
	if len(frameDur) == 0 {
		return
	}
	sort.Float64s(frameDur)

	fmt.Fprintf(w, "\nstage latency over %d frames (ms):\n", len(frameDur))
	fmt.Fprintf(w, "  %-22s %8s %8s %8s %8s %8s\n", "stage", "n", "p50", "p90", "p99", "max")
	row := func(name string, v []float64) {
		sort.Float64s(v)
		fmt.Fprintf(w, "  %-22s %8d %8.3f %8.3f %8.3f %8.3f\n",
			name, len(v), percentile(v, 50), percentile(v, 90), percentile(v, 99), v[len(v)-1])
	}
	row("frame (total)", frameDur)
	for _, name := range order {
		row(name, byName[name])
	}
}

// printCriticalPaths prints a span-by-span breakdown of the slowest
// retained frames.
func (r *report) printCriticalPaths(w io.Writer) {
	frames := make([]obs.FlightFrame, 0, len(r.frames))
	for _, f := range r.frames {
		if f.Group >= 0 {
			frames = append(frames, f)
		}
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i].DurNS > frames[j].DurNS })
	n := min(r.top, len(frames))
	if n <= 0 {
		return
	}

	fmt.Fprintf(w, "\ncritical paths, %d slowest frames:\n", n)
	for _, f := range frames[:n] {
		fmt.Fprintf(w, "  seq %d  group %d frame %d  t=%.1fs  %.3f ms", f.Seq, f.Group, f.Frame, f.TimeS, ms(f.DurNS))
		if f.Request != "" {
			fmt.Fprintf(w, "  request=%s", f.Request)
		}
		if len(f.Anomalies) > 0 {
			fmt.Fprintf(w, "  [%s]", strings.Join(f.Anomalies, ","))
		}
		fmt.Fprintln(w)
		for _, s := range f.Spans {
			if s.Kind == "frame" {
				continue
			}
			indent := "    "
			if s.Kind == "solve" {
				indent = "      " // solves are children of a stage span
			}
			pct := 0.0
			if f.DurNS > 0 {
				pct = 100 * float64(s.DurNS) / float64(f.DurNS)
			}
			fmt.Fprintf(w, "%s%-18s %9.3f ms  %5.1f%%", indent, s.Name, ms(s.DurNS), pct)
			if s.A != 0 || s.B != 0 {
				fmt.Fprintf(w, "  (a=%d b=%d)", s.A, s.B)
			}
			fmt.Fprintln(w)
		}
	}
}

func (r *report) printAnomalies(w io.Writer) {
	totals := make(map[string]uint64)
	for _, d := range r.dumps {
		for k, v := range d.Anomalies {
			totals[k] += v
		}
	}
	if len(totals) == 0 {
		fmt.Fprintln(w, "\nno anomalies recorded")
		return
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "\nanomalies:")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-18s %d\n", k, totals[k])
	}

	fmt.Fprintf(w, "pinned records (%d):\n", r.pinnedTotal)
	for _, d := range r.dumps {
		for _, f := range d.Pinned {
			if len(f.Anomalies) == 0 {
				continue
			}
			what := fmt.Sprintf("group %d frame %d", f.Group, f.Frame)
			if f.Group < 0 && len(f.Spans) > 0 {
				what = "event: " + f.Spans[0].Name
			}
			fmt.Fprintf(w, "  seq %-6d %-28s [%s]", f.Seq, what, strings.Join(f.Anomalies, ","))
			if f.Request != "" {
				fmt.Fprintf(w, "  request=%s", f.Request)
			}
			fmt.Fprintln(w)
		}
	}
}

func (r *report) printTrace(w io.Writer) {
	sort.Float64s(r.schedMS)
	fmt.Fprintf(w, "\ntrace: %d frames, %d deadline misses\n", r.traceLines, r.traceMissed)
	fmt.Fprintf(w, "  sched_ms p50 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
		percentile(r.schedMS, 50), percentile(r.schedMS, 90), percentile(r.schedMS, 99), r.schedMS[len(r.schedMS)-1])
	fmt.Fprintf(w, "  targets %d  detected %d  captures %d\n", r.targets, r.detected, r.captures)
}
