package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"eagleeye"
)

// TestPrintResultWallClockOnSchedulerLine: two Results that differ only in
// their wall-clock fields (scheduler times, missed deadlines, ILP pivoting
// time) print the same lines apart from the scheduler: line, so comparing
// the stdout of two runs of one scenario needs that one normalization.
func TestPrintResultWallClockOnSchedulerLine(t *testing.T) {
	solved := eagleeye.Result{
		Organization: eagleeye.LeaderFollower, Dataset: eagleeye.DatasetShips, Satellites: 8,
		CoveragePct: 41.25, LowResSeenPct: 63.5, TotalTargets: 1000, HighResCaptured: 412,
		Frames: 3096, Detections: 521, Captures: 480,
		SchedulerMeanMS: 1.4, SchedulerMaxMS: 35.2, MissedDeadlines: 0,
		SolverNodes: 1234, SolverIters: 5678, SolverPivotMS: 12.5,
		LeaderEnergyUtilization: 0.31, FollowerEnergyUtilization: 0.57,
	}
	// An empty run: the scheduler line appears only when a solve took
	// measurable time.
	idle := eagleeye.Result{Organization: eagleeye.LeaderFollower, Dataset: eagleeye.DatasetShips, Satellites: 2, TotalTargets: 10, Frames: 40}
	for _, a := range []eagleeye.Result{solved, idle} {
		b := a
		b.SchedulerMeanMS, b.SchedulerMaxMS, b.MissedDeadlines, b.SolverPivotMS = 9.7, 480.1, 3, 301.9
		outA, outB := printed(&a), printed(&b)
		if outA == outB {
			t.Fatalf("wall-clock fields changed nothing printed:\n%s", outA)
		}
		if la, lb := withoutScheduler(outA), withoutScheduler(outB); !slices.Equal(la, lb) {
			t.Errorf("lines other than scheduler: differ:\n%s\nvs\n%s", outA, outB)
		}
	}
	if out := printed(&solved); !strings.Contains(out, "ms ilp pivoting") || strings.Contains(out, "iters, ") {
		t.Errorf("pivoting time not on the scheduler line alone:\n%s", out)
	}
}

func printed(r *eagleeye.Result) string {
	var buf bytes.Buffer
	printResult(&buf, r, 6)
	return buf.String()
}

func withoutScheduler(out string) []string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  scheduler:") {
			keep = append(keep, line)
		}
	}
	return keep
}
