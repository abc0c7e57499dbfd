package main

import (
	"fmt"

	"eagleeye/internal/obs"
)

// e2eMetrics are the end-to-end metrics every workload emits with -trace 0.
// Each workload gives them its own meaning (README.md has the table):
// work_per_s is simulated hours, frames or served steps per second;
// op_p50_ms and op_p90_ms are the latency of the workload's operation (one
// 15-minute Advance window, one frame, one step request); coverage_pct is
// the quality guard that keeps a speed-up from coming out of doing less.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"coverage_pct", "%"},
}

// layerMetrics are the per-layer metrics every workload emits with
// -trace 1. A layer the workload bypasses reads 0. Per workload the time
// metrics listed in partitions plus unattributed_ms add up to wall_ms.
var layerMetrics = []struct{ name, unit string }{
	{"wall_ms", "ms"},
	{"unattributed_ms", "ms"},
	{"orbit.ephemeris_ms", "ms"},
	{"dataset.index_builds", "count"},
	{"dataset.index_build_ms", "ms"},
	{"sim.frames", "count"},
	{"sim.frames_with_targets", "count"},
	{"sim.captures", "count"},
	{"sim.execute_ms", "ms"},
	{"sim.account_ms", "ms"},
	{"detect.ms", "ms"},
	{"detect.detections", "count"},
	{"cluster.ms", "ms"},
	{"cluster.clusters", "count"},
	{"cluster.lp_iters", "count"},
	{"cluster.truncated", "count"},
	{"sched.ms", "ms"},
	{"sched.solves", "count"},
	{"sched.frame_p50_ms", "ms"},
	{"sched.frame_max_ms", "ms"},
	{"sched.fallbacks", "count"},
	{"sched.truncated", "count"},
	{"sched.warm_hit_rate", "ratio"},
	{"mip.nodes", "count"},
	{"mip.pivot_ms", "ms"},
	{"lp.iters", "count"},
	{"lp.dense_solves", "count"},
	{"lp.sparse_solves", "count"},
	{"lp.refactorizations", "count"},
	{"lp.partial_pricing_solves", "count"},
	{"lp.nnz_max", "count"},
	{"core.shards", "count"},
	{"core.shard_imbalance", "ratio"},
	{"core.dropped_captures", "count"},
	{"core.fallbacks", "count"},
	{"core.parallel_ms", "ms"},
	{"core.serial_ms", "ms"},
	{"core.shard_sched_max_ms", "ms"},
	{"core.shard_problem_targets_max", "count"},
	{"core.covered_per_frame", "count"},
	{"session.create_ms", "ms"},
	{"session.step_ms", "ms"},
	{"session.checkpoint_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.queue_depth_max", "count"},
	{"server.rejects", "count"},
	{"server.read_p50_ms", "ms"},
	{"server.read_p90_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.flight_overhead_pct", "%"},
	{"gen.lag_p99_ms", "ms"},
}

// partitions names, per workload, the layer times that together with
// unattributed_ms make up wall_ms. Nested times (mip.pivot_ms inside
// sched.ms, per-shard busy times inside core.parallel_ms) stay out.
var partitions = map[string][]string{
	"sim-ships":     simPartition,
	"sim-airplanes": simPartition,
	"frame-dense":   {"core.serial_ms", "core.parallel_ms"},
	"serve-mix":     {"server.queue_wait_ms", "server.run_ms"},
}

var simPartition = []string{"orbit.ephemeris_ms", "detect.ms", "cluster.ms", "sched.ms", "sim.execute_ms", "sim.account_ms"}

func unitOf(table []struct{ name, unit string }, name string) string {
	for _, m := range table {
		if m.name == name {
			return m.unit
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not in the table", name))
}

// e2e records an end-to-end metric.
func (o *outcome) e2e(name string, v float64) { o.set(name, v, unitOf(e2eMetrics, name)) }

// layer records a per-layer metric.
func (o *outcome) layer(name string, v float64) { o.set(name, v, unitOf(layerMetrics, name)) }

// newLayerOutcome starts a traced run with every per-layer metric at 0.
func newLayerOutcome() *outcome {
	o := newOutcome()
	for _, m := range layerMetrics {
		o.set(m.name, 0, m.unit)
	}
	return o
}

// reconcile sets unattributed_ms so the workload's partition adds up to
// wall_ms.
func (o *outcome) reconcile(workload string, wallMS float64) {
	o.layer("wall_ms", wallMS)
	rest := wallMS
	for _, name := range partitions[workload] {
		rest -= o.metrics[name].Value
	}
	o.layer("unattributed_ms", rest)
}

// reading is a snapshot of the registry series the per-layer metrics are
// read from: the simulator's stage timers and event counters and both
// solver stacks' counters. The sim workloads read one registry per traced
// run; serve-mix subtracts a reading taken before its measured phase.
type reading map[string]float64

func readRegistry(reg *obs.Registry) reading {
	stage := func(s string) float64 {
		return float64(reg.CounterValue("eagleeye_stage_nanoseconds_total", obs.Label{Key: "stage", Value: s})) / 1e6
	}
	count := func(name string) float64 { return float64(reg.CounterValue(name)) }
	solver := func(name, solver string, extra ...obs.Label) float64 {
		return float64(reg.CounterValue(name, append([]obs.Label{{Key: "solver", Value: solver}}, extra...)...))
	}
	both := func(name string, extra ...obs.Label) float64 {
		return solver(name, "sched", extra...) + solver(name, "cluster", extra...)
	}
	nnz := reg.GaugeValue("eagleeye_lp_instance_nnz_max", obs.Label{Key: "solver", Value: "sched"})
	if c := reg.GaugeValue("eagleeye_lp_instance_nnz_max", obs.Label{Key: "solver", Value: "cluster"}); c > nnz {
		nnz = c
	}
	return reading{
		"orbit.ephemeris_ms":        stage("ephemeris"),
		"detect.ms":                 stage("detect"),
		"cluster.ms":                stage("cluster"),
		"sched.ms":                  stage("sched"),
		"sim.execute_ms":            stage("execute"),
		"sim.account_ms":            stage("account"),
		"sim.frames":                count("eagleeye_frames_total"),
		"sim.frames_with_targets":   count("eagleeye_frames_with_targets_total"),
		"sim.captures":              count("eagleeye_captures_total"),
		"detect.detections":         count("eagleeye_detections_total"),
		"cluster.clusters":          count("eagleeye_clusters_total"),
		"cluster.lp_iters":          solver("eagleeye_lp_iters_total", "cluster"),
		"cluster.truncated":         solver("eagleeye_mip_truncated_total", "cluster"),
		"sched.solves":              count("eagleeye_sched_solves_total"),
		"sched.fallbacks":           count("eagleeye_sched_fallbacks_total"),
		"sched.truncated":           solver("eagleeye_mip_truncated_total", "sched"),
		"mip.nodes":                 both("eagleeye_mip_nodes_total"),
		"mip.pivot_ms":              both("eagleeye_mip_pivot_nanoseconds_total") / 1e6,
		"lp.iters":                  both("eagleeye_lp_iters_total"),
		"lp.dense_solves":           both("eagleeye_lp_core_solves_total", obs.Label{Key: "core", Value: "dense"}),
		"lp.sparse_solves":          both("eagleeye_lp_core_solves_total", obs.Label{Key: "core", Value: "sparse"}),
		"lp.refactorizations":       both("eagleeye_lp_refactorizations_total"),
		"lp.partial_pricing_solves": both("eagleeye_lp_partial_pricing_solves_total"),
		"lp.nnz_max":                nnz,
		"warm.attempts":             solver("eagleeye_warmstart_attempts_total", "sched"),
		"warm.accepted":             solver("eagleeye_warmstart_accepted_total", "sched"),
	}
}

// minus returns r - base for every series except the high-water gauge.
func (r reading) minus(base reading) reading {
	out := make(reading, len(r))
	for k, v := range r {
		out[k] = v - base[k]
	}
	out["lp.nnz_max"] = r["lp.nnz_max"]
	return out
}

// apply copies a reading into the per-layer metrics.
func (o *outcome) apply(r reading) {
	for k, v := range r {
		if k == "warm.attempts" || k == "warm.accepted" {
			continue
		}
		o.layer(k, v)
	}
	if r["warm.attempts"] > 0 {
		o.layer("sched.warm_hit_rate", r["warm.accepted"]/r["warm.attempts"])
	}
}
