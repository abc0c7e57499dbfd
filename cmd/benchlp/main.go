// Command benchlp benchmarks the two simplex engines against each other
// on generated solver-shaped instances (internal/lp's GenSchedLP and
// GenCoverLP) and writes machine-readable measurement points, so the
// sparse core's scale advantage is recorded alongside the code
// (BENCH_lp.json) and CI can smoke-run the differential on every change.
// Each instance is solved by both cores and the objectives are asserted
// equal to 1e-6 before a point is emitted -- the benchmark doubles as an
// at-scale differential test, where the unit fuzz covers only small
// instances.
//
// The default run includes a 20k+-variable sched-shaped instance whose
// dense solve takes minutes (the dense tableau is ~600MB and every pivot
// sweeps all of it); -quick restricts to sizes where the dense core
// finishes in seconds, which is what `make bench-scale-smoke` and CI use.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"eagleeye/internal/lp"
)

// pointSchema versions the point layout for downstream consumers of the
// BENCH_lp.json series. Bump it whenever a field changes meaning.
const pointSchema = 1

// point is one instance measurement: both engines' times on the same
// problem plus the instance's shape.
type point struct {
	Schema    int    `json:"schema"`
	Name      string `json:"name"`
	Date      string `json:"date"`
	Commit    string `json:"commit,omitempty"`
	GoVersion string `json:"go"`

	Vars int `json:"vars"`
	Rows int `json:"rows"`
	NNZ  int `json:"nnz"`

	DenseNs     int64   `json:"dense_ns"`
	SparseNs    int64   `json:"sparse_ns"`
	Speedup     float64 `json:"speedup"`
	Objective   float64 `json:"objective"`
	DenseIters  int     `json:"dense_iters"`
	SparseIters int     `json:"sparse_iters"`

	Factorizations   int `json:"factorizations"`
	Refactorizations int `json:"refactorizations"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

type instance struct {
	name string
	gen  func() *lp.Problem
}

func main() {
	var (
		out   = flag.String("out", "", "append JSON points to this file ('' means stdout only)")
		quick = flag.Bool("quick", false, "skip the minutes-long large dense solves (CI smoke)")
	)
	flag.Parse()

	instances := []instance{
		// Shard scale: every frame-dense shard solve and simulator solve
		// is this size, below the CoreAuto crossover, so it runs dense.
		{"lp/sched_shard", func() *lp.Problem { return lp.GenSchedLP(8, 4, 8, 8, 1) }},
		{"lp/sched_2k", func() *lp.Problem { return lp.GenSchedLP(100, 4, 6, 4, 1) }},
		{"lp/cover_500", func() *lp.Problem { return lp.GenCoverLP(350, 500, 4, 1) }},
	}
	if !*quick {
		instances = append(instances,
			instance{"lp/sched_6k", func() *lp.Problem { return lp.GenSchedLP(200, 4, 8, 5, 1) }},
			instance{"lp/sched_21k", func() *lp.Problem { return lp.GenSchedLP(400, 3, 24, 6, 1) }},
		)
	}

	var f *os.File
	if *out != "" {
		var err error
		f, err = os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchlp:", err)
			os.Exit(1)
		}
		defer f.Close()
	}

	date := time.Now().UTC().Format(time.RFC3339)
	commit := gitCommit()
	for _, inst := range instances {
		p := inst.gen()
		if err := p.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "benchlp: %s: %v\n", inst.name, err)
			os.Exit(1)
		}

		sparseWS := &lp.Workspace{Core: lp.CoreSparse}
		start := time.Now()
		sparse := sparseWS.Solve(p)
		sparseNs := time.Since(start).Nanoseconds()
		if sparse.Status != lp.StatusOptimal {
			fmt.Fprintf(os.Stderr, "benchlp: %s: sparse status %v\n", inst.name, sparse.Status)
			os.Exit(1)
		}

		denseWS := &lp.Workspace{Core: lp.CoreDense}
		start = time.Now()
		dense := denseWS.Solve(p)
		denseNs := time.Since(start).Nanoseconds()
		if dense.Status != lp.StatusOptimal {
			fmt.Fprintf(os.Stderr, "benchlp: %s: dense status %v\n", inst.name, dense.Status)
			os.Exit(1)
		}

		// Differential gate: the two engines must land on one optimum.
		if d := dense.Objective - sparse.Objective; d > 1e-6*(1+abs(dense.Objective)) || -d > 1e-6*(1+abs(dense.Objective)) {
			fmt.Fprintf(os.Stderr, "benchlp: %s: objective mismatch dense=%v sparse=%v\n",
				inst.name, dense.Objective, sparse.Objective)
			os.Exit(1)
		}

		pt := point{
			Schema:           pointSchema,
			Name:             inst.name,
			Date:             date,
			Commit:           commit,
			GoVersion:        runtime.Version(),
			Vars:             len(p.C),
			Rows:             len(p.B),
			NNZ:              p.NNZ(),
			DenseNs:          denseNs,
			SparseNs:         sparseNs,
			Speedup:          float64(denseNs) / float64(sparseNs),
			Objective:        sparse.Objective,
			DenseIters:       dense.Iters,
			SparseIters:      sparse.Iters,
			Factorizations:   sparseWS.Factorizations,
			Refactorizations: sparseWS.Refactorizations,
		}
		enc, err := json.Marshal(pt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchlp:", err)
			os.Exit(1)
		}
		fmt.Println(string(enc))
		if f != nil {
			if _, err := fmt.Fprintln(f, string(enc)); err != nil {
				fmt.Fprintln(os.Stderr, "benchlp:", err)
				os.Exit(1)
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
