// Command eagleeye runs one EagleEye constellation simulation end to end
// and prints the coverage, runtime and energy summary.
//
// Usage:
//
//	eagleeye -dataset ships -org leader-follower -sats 8 -hours 6
//	eagleeye -dataset lakes-166k -org high-res-only -sats 8 -hours 6
//	eagleeye -dataset airplanes -scheduler greedy -sats 4 -followers 1
//	eagleeye -dataset ships -hours 6 -metrics-addr 127.0.0.1:9090 -metrics-out metrics.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"eagleeye"
)

func main() {
	var (
		org       = flag.String("org", eagleeye.LeaderFollower, "organization: low-res-only | high-res-only | leader-follower | mix-camera")
		dataset   = flag.String("dataset", eagleeye.DatasetShips, "workload: ships | airplanes | lakes-166k | lakes-1.4m")
		sats      = flag.Int("sats", 4, "total satellite count")
		followers = flag.Int("followers", 1, "followers per group (leader-follower)")
		scheduler = flag.String("scheduler", eagleeye.SchedulerILP, "scheduler: ilp | greedy | abb")
		detector  = flag.String("detector", "yolo_n", "detector: yolo_n | yolo_s | yolo_m | yolo_l | yolo_x")
		hours     = flag.Float64("hours", 24, "simulated duration in hours")
		slew      = flag.Float64("slew", 3, "ADACS slew rate in deg/s")
		recall    = flag.Float64("recall", 0, "override detector recall in (0,1]; 0 keeps the model's")
		seed      = flag.Int64("seed", 1, "random seed")
		nocluster = flag.Bool("no-clustering", false, "disable target clustering")
		warm      = flag.Bool("warm", true, "cross-frame warm-started solving (per-leader state, LP basis reuse); false for the cold A/B baseline")
		planes    = flag.Int("planes", 1, "orbital planes (§4.7 orbit-design extension)")
		recapture = flag.Bool("recapture-dedup", false, "deprioritize already-captured targets (§4.7)")
		traceFile = flag.String("trace", "", "write a per-frame JSON trace to this file (\"-\" for stdout)")
		workers   = flag.Int("workers", 0, "parallel simulation workers (0 = all CPUs, 1 = sequential; output is identical either way)")

		metricsAddr = flag.String("metrics-addr", "", "serve live metrics on this address (/metrics, /summary, /debug/pprof); e.g. 127.0.0.1:9090")
		metricsOut  = flag.String("metrics-out", "", "write an end-of-run metrics summary JSON to this file (\"-\" for stdout)")
		metricsHold = flag.Duration("metrics-hold", 0, "keep the -metrics-addr endpoint up this long after the run finishes (for final scrapes)")
		flightOut   = flag.String("flight-out", "", "record frame span trees in flight and write the dump JSON to this file (\"-\" for stdout); analyze with eeinspect")
	)
	flag.Parse()

	var trace io.Writer
	if *traceFile == "-" {
		trace = os.Stdout
	} else if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eagleeye:", err)
			os.Exit(1)
		}
		defer f.Close()
		trace = f
	}

	var metrics *eagleeye.MetricsRegistry
	if *metricsAddr != "" || *metricsOut != "" {
		metrics = eagleeye.NewMetricsRegistry()
	}
	var flight *eagleeye.FlightRecorder
	if *flightOut != "" {
		flight = eagleeye.NewFlightRecorder(eagleeye.FlightConfig{})
	}
	if *metricsAddr != "" {
		srv, err := eagleeye.ServeMetrics(*metricsAddr, metrics, flight)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eagleeye:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "eagleeye: serving metrics on http://%s/metrics\n", srv.Addr())
	}

	r, err := eagleeye.Run(eagleeye.Config{
		Organization:      *org,
		Dataset:           *dataset,
		Satellites:        *sats,
		FollowersPerGroup: *followers,
		Scheduler:         *scheduler,
		Detector:          *detector,
		DurationHours:     *hours,
		SlewRateDegS:      *slew,
		RecallOverride:    *recall,
		Seed:              *seed,
		NoClustering:      *nocluster,
		DisableWarmStart:  !*warm,
		OrbitPlanes:       *planes,
		RecaptureDedup:    *recapture,
		Trace:             trace,
		Metrics:           metrics,
		Flight:            flight,
		Workers:           *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "eagleeye:", err)
		os.Exit(1)
	}

	if *flightOut != "" {
		out := os.Stdout
		if *flightOut != "-" {
			f, ferr := os.Create(*flightOut)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "eagleeye:", ferr)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if werr := flight.WriteJSON(out); werr != nil {
			fmt.Fprintln(os.Stderr, "eagleeye:", werr)
			os.Exit(1)
		}
	}

	if *metricsOut != "" {
		out := os.Stdout
		if *metricsOut != "-" {
			f, ferr := os.Create(*metricsOut)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "eagleeye:", ferr)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if werr := metrics.WriteSummary(out); werr != nil {
			fmt.Fprintln(os.Stderr, "eagleeye:", werr)
			os.Exit(1)
		}
	}
	if *metricsAddr != "" && *metricsHold > 0 {
		fmt.Fprintf(os.Stderr, "eagleeye: holding metrics endpoint for %s\n", *metricsHold)
		time.Sleep(*metricsHold)
	}

	printResult(os.Stdout, r, *hours)
}

// printResult writes the run summary. Every wall-clock figure (scheduler
// times, missed deadlines, ILP pivoting time) is on the scheduler: line,
// so two runs of one scenario print the same lines apart from that one.
func printResult(w io.Writer, r *eagleeye.Result, hours float64) {
	fmt.Fprintf(w, "EagleEye simulation: %s on %q (%d satellites, %.1f h)\n",
		r.Organization, r.Dataset, r.Satellites, hours)
	fmt.Fprintf(w, "  coverage:           %.2f%% of %d targets captured\n", r.CoveragePct, r.TotalTargets)
	fmt.Fprintf(w, "  low-res visibility: %.2f%%\n", r.LowResSeenPct)
	fmt.Fprintf(w, "  frames:             %d (detections %d, captures %d)\n", r.Frames, r.Detections, r.Captures)
	if r.SchedulerMeanMS > 0 || r.Captures > 0 || r.SolverNodes > 0 {
		fmt.Fprintf(w, "  scheduler:          mean %.1f ms, max %.1f ms, %d missed deadlines",
			r.SchedulerMeanMS, r.SchedulerMaxMS, r.MissedDeadlines)
		if r.SolverNodes > 0 {
			fmt.Fprintf(w, ", %.1f ms ilp pivoting", r.SolverPivotMS)
		}
		fmt.Fprintln(w)
	}
	if r.SolverNodes > 0 {
		fmt.Fprintf(w, "  ilp solver:         %d B&B nodes, %d simplex iters\n", r.SolverNodes, r.SolverIters)
	}
	fmt.Fprintf(w, "  energy utilization: leader %.2f, follower %.2f (fraction of per-orbit harvest)\n",
		r.LeaderEnergyUtilization, r.FollowerEnergyUtilization)
}
