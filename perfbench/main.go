// Command perfbench is the repository's benchmark: one command that runs a
// named workload through the public entry points of sim, core, eagleeye and
// server, prints every metric BENCHMARK.json names with its unit, checks the
// program's outputs, and exits non-zero when a check fails.
//
//	perfbench -workload sim-ships -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it runs
// the workload again with the program's existing instrumentation attached
// (plus timers around the public calls the benchmark makes) and prints the
// per-layer metrics, including an unattributed_ms bucket that makes the
// layer times add up to the traced wall time.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. The line before it, prefixed "perfbench-record ", carries the
// same run with its workload, seed and deterministic counters; -compare
// diffs two files of such lines (see compare.go). -reference runs the
// frame-dense unsharded reference (see reference.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"syscall"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	// counters are the deterministic counts of the run (frames, captures,
	// solver nodes and iterations, LP solves, index builds); the comparator
	// diffs them exactly between two result sets.
	counters map[string]int64
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), counters: make(map[string]int64)}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// op counts one attempted operation, failed when err is non-nil.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// check counts one correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		o.op(nil)
		return
	}
	o.op(fmt.Errorf(format, args...))
}

// runConfig is what every workload receives: the seed its inputs are
// generated from, the measuring time, the mode, and the scale (tiny runs
// the same code paths on small inputs, for the benchmark's own test).
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
}

type workloadFunc func(runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sim-ships":     func(c runConfig) (*outcome, error) { return runSim(c, simShips) },
	"sim-airplanes": func(c runConfig) (*outcome, error) { return runSim(c, simAirplanes) },
	"frame-dense":   runFrameDense,
	"serve-mix":     runServeMix,
}

// spec is the subset of BENCHMARK.json the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkNames verifies the run emitted exactly the metrics the spec names
// for its mode, each with the spec's unit.
func checkNames(s *spec, trace bool, got map[string]metric) error {
	want := s.EndToEnd
	if trace {
		want = s.PerLayer
	}
	var problems []string
	seen := make(map[string]bool)
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, spec says %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !seen[name] {
			problems = append(problems, "unlisted "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric names: %s", strings.Join(problems, "; "))
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// record is one run as the comparator reads it back.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
	Counters map[string]int64  `json:"counters,omitempty"`
}

const recordPrefix = "perfbench-record "

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func report(w io.Writer, name string, cfg runConfig, o *outcome) error {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "perfbench: %s seed %d, %s metrics (%d of %d operations failed)\n", name, cfg.seed, mode, o.failed, o.attempted)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	rec, err := json.Marshal(record{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Metrics: o.metrics, Counters: o.counters})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", recordPrefix, rec)
	final, err := json.Marshal(result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", final)
	return err
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name (sim-ships, sim-airplanes, frame-dense, serve-mix)")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", 20, "measuring time per run")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		specPath  = flag.String("spec", "BENCHMARK.json", "benchmark definition the emitted metrics are checked against")
		compare   = flag.String("compare", "", "two comma-separated files of perfbench output to diff per workload and metric")
		reference = flag.Bool("reference", false, "run the frame-dense unsharded reference and print it as JSON")
	)
	flag.Parse()
	s, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare != "":
		files := strings.Split(*compare, ",")
		if len(files) != 2 {
			fatal(fmt.Errorf("-compare wants two files, got %q", *compare))
		}
		if err := compareFiles(os.Stdout, s, files[0], files[1]); err != nil {
			fatal(err)
		}
		return
	case *reference:
		if err := runReference(os.Stdout, *seed); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	o, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := checkNames(s, cfg.trace, o.metrics); err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, *name, cfg, o); err != nil {
		fatal(err)
	}
	if o.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
