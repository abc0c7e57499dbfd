# Tier-1 gate: every PR must keep `make tier1` green. The race detector
# is part of the gate because the simulator runs constellation groups on
# a worker pool (sim.Config.Workers).

GO ?= go

.PHONY: build vet test race race-contracts tier1 bench bench-selftest bench-smoke bench-solver bench-scale bench-scale-smoke bench-shard-smoke metrics-smoke serve-smoke longhorizon-smoke flight-smoke figures

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

tier1: build vet race

# Race contracts: the determinism and differential tests CI runs under the
# race detector. Warm runs reproduce cold ones, Workers 4 reproduces 1,
# the warm/cold and sparse/dense differentials hold (fuzz seeds), and the
# dense-simplex kernels, incremental pricing and polish match the code
# they replaced. The moving-target index matches a full-set index (sweep,
# order, keys, concurrent first touch, prefetched builds racing sweeps and
# Retire, ten times over), its sweeps keep no target past the
# extrapolation bound, and every query walks each row of its band once;
# the runner prefetches only epochs its frames reach, the frame-query
# lookahead leaves results, traces and candidate totals unchanged (ten
# times over, through a leader re-election at the first frame), a
# re-elected leader stands at the group's frame time, and the moving-world
# runs match their golden. Destination, ToLocal, the actuation bisection,
# the windowed arrival and the detector RNG match their oracles bit for
# bit, and the generated worlds and strip snapshots their golden hashes.
# The metric counters equal the Result after every window (one-shot,
# windowed and restored runs) and the trace's sums, total the same at
# Workers 4 as at 1, and every family is documented; each stage's flight
# spans sum to its stage counter. Create bodies, checkpoints, simulator
# snapshots, step bodies, one-shot spans and eeinspect's inputs stay
# within their bounds (the one-shot memory test skips under the race
# detector; longhorizon-smoke runs it).
# Each name is a -run pattern; one that matches no test in the packages
# fails the target, so a rename cannot silently shrink the gate.
race-contracts:
	@pkgs=". ./internal/sim ./internal/sched ./internal/mip ./internal/lp \
		./internal/dataset ./internal/geo ./internal/server ./internal/core ./internal/adacs \
		./cmd/eeinspect"; \
	names="TestWarmStart TestWorkersDeterministic TestWarmCold \
		FuzzWarmStartDifferential FuzzSparseDenseDifferential \
		FuzzDenseKernelDifferential FuzzDenseRepriceDifferential TestDenseSolveGolden \
		TestPolishMatchesOracle TestMovingWorld FuzzTimedIndexSpanDifferential \
		TestTimedIndexCourseKeys TestTimedIndexConcurrentOutside \
		TestTimedIndexConcurrentFirstTouch TestTimedIndexKeysFewTargets \
		TestPoleCourseKeysTopRow TestNearVisitsEachRowOnce TestTimedIndexSweepTight \
		TestTimedIndexPrefetch TestRunnerPrefetchHorizon TestFrameLookaheadIdentity FuzzIngest \
		TestFilterInFramePrefilterSound TestExecutePrefilterSound \
		TestDestinationBitIdentical TestToLocalBitIdentical TestActuationTimeBisectionBitIdentical \
		TestArrivalBitIdentical FuzzArrivalDifferential TestLeaderFailAtStart TestSnapshotBytesGolden \
		TestFrameSourceDifferential TestFrameSourceGeneratesOnlyWordsRead \
		FuzzFrameSourceDifferential TestDatasetGolden TestAdmissionStress \
		FuzzRestoreSession FuzzRestoreRunner FuzzCreateBody FuzzStepBody TestCreateBoundsTargetSpeed \
		TestSessionRejectsBadCourses TestOneShotMemoryBounded \
		TestMetrics TestTraceMetricsConsistency TestFlightMatchesStageMetrics"; \
	listed=$$($(GO) test -list . $$pkgs) || { echo "$$listed"; exit 1; }; \
	for n in $$names; do \
		echo "$$listed" | grep -E '^(Test|Fuzz)' | grep -q -- "$$n" \
			|| { echo "race-contracts: $$n matches no test in" $$pkgs; exit 1; }; \
	done; \
	$(GO) test -race -count=1 -run "$$(echo $$names | tr ' ' '|')" $$pkgs
	$(GO) test -race -count=10 -run '^TestTimedIndexPrefetch$$' ./internal/dataset
	$(GO) test -race -count=10 -run '^TestFrameLookaheadIdentity$$' ./internal/sim

bench:
	$(GO) test -bench=. -benchmem .

# Benchmark self-test: perfbench is its own module, so `go build ./...` at
# the root never compiles it. Vetting and testing it here (tiny scale)
# catches a core/sim/server API change that would break the benchmark.
bench-selftest:
	cd perfbench && $(GO) vet . && $(GO) test .

# Benchmark smoke: a 3 s run of each benchmarked workload through the
# benchmark itself. Catches frame-loop, sharded-frame and server
# regressions that only show at benchmark scale; perfbench exits non-zero
# when any of its correctness checks fails (for frame-dense, every
# stitched schedule passes sched.ValidateSchedule).
bench-smoke:
	for w in sim-airplanes frame-dense serve-mix; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done

# Solver smoke benches: one iteration of every lp/mip/sched/cluster bench.
# CI runs this to catch solver-path regressions that compile and pass unit
# tests but crash or hang only on benchmark-sized instances.
bench-solver:
	$(GO) test -run=xxx -bench=. -benchmem -benchtime=1x \
		./internal/lp ./internal/mip ./internal/sched ./internal/cluster

# LP scale harness: dense vs sparse simplex on generated sched/cover-
# shaped instances up to 20k+ variables, appending points to
# BENCH_lp.json. Each instance is also a differential check (both engines
# must agree to 1e-6). The full run's largest dense solve takes minutes
# by design -- that is the scale ceiling the sparse core removes.
bench-scale:
	$(GO) run ./cmd/benchlp -out BENCH_lp.json

# Quick differential pass over the small instances only, for CI.
bench-scale-smoke:
	$(GO) run ./cmd/benchlp -quick

# CI shard smoke: the intra-frame determinism gate under the race
# detector. A 4-worker executor must produce byte-identical results to
# the sequential one on a sharded 20k-target frame, and a single-shard
# plan must match the plain pipeline.
bench-shard-smoke:
	$(GO) test -race -count=1 -run 'TestShardedFrameWorkersIdentity|TestShardedSingleShardMatchesPlain' ./internal/core

# Observability smoke: run a short instrumented simulation with the live
# endpoint up, scrape /metrics during the post-run hold, and assert the
# key series exist. Catches wiring rot (renamed series, dead endpoint)
# that unit tests on internal/obs alone would miss.
metrics-smoke:
	$(GO) build -o /tmp/eagleeye-smoke ./cmd/eagleeye
	/tmp/eagleeye-smoke -dataset ships -sats 2 -hours 1 \
		-metrics-addr 127.0.0.1:19090 -metrics-hold 5s & \
	EE_PID=$$!; \
	sleep 2; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		curl -sf http://127.0.0.1:19090/metrics -o /tmp/eagleeye-metrics.txt && break; \
		sleep 1; \
	done; \
	wait $$EE_PID || exit 1; \
	for series in eagleeye_frames_total eagleeye_captures_total \
		eagleeye_stage_nanoseconds_total eagleeye_mip_solves_total \
		eagleeye_sim_progress eagleeye_stage_seconds_bucket \
		eagleeye_warmstart_attempts_total eagleeye_warmstart_accepted_total \
		eagleeye_warmstart_projections_total eagleeye_warmstart_basis_reuses_total; do \
		grep -q "^$$series" /tmp/eagleeye-metrics.txt \
			|| { echo "metrics-smoke: missing series $$series"; exit 1; }; \
	done; \
	echo "metrics-smoke: all key series present"

# Shared eagleeyed lifecycle for the smoke recipes below, expanded inside
# one recipe shell so EED_PID carries over. eed_boot starts the daemon
# built at /tmp/eagleeyed on address $(1) with extra flags $(2), then
# polls GET /healthz for up to 10 s, failing fast if the daemon exits.
# eed_stop sends SIGTERM and requires a clean drain (exit status 0).
eed_boot = /tmp/eagleeyed -addr $(1) $(2) & \
	EED_PID=$$!; \
	for i in $$(seq 1 50); do \
		kill -0 $$EED_PID 2>/dev/null || { echo "eagleeyed on $(1) exited during boot"; exit 1; }; \
		curl -sf http://$(1)/healthz -o /dev/null && break; \
		sleep 0.2; \
	done; \
	curl -sf http://$(1)/healthz -o /dev/null \
		|| { echo "eagleeyed on $(1) not healthy after 10 s"; kill $$EED_PID; exit 1; }
eed_stop = kill -TERM $$EED_PID; \
	wait $$EED_PID || { echo "eagleeyed did not drain cleanly"; exit 1; }

# Scheduling-service smoke, mirroring the PR 6 acceptance criteria at CI
# scale. Phase 1: boot eagleeyed, drive 100 concurrent sessions with
# loadgen -verify (zero drops, every result identical to a direct library
# run), and assert the eagleeyed_* series are live on /metrics before a
# clean SIGTERM drain. Phase 2: saturate a 1-worker/1-slot daemon and
# require 429 backpressure to have fired (clients retried and still
# completed every session).
serve-smoke:
	$(GO) build -o /tmp/eagleeyed ./cmd/eagleeyed
	$(GO) build -o /tmp/eagleeye-loadgen ./cmd/loadgen
	$(call eed_boot,127.0.0.1:19091,-workers 4); \
	/tmp/eagleeye-loadgen -addr 127.0.0.1:19091 \
		-sessions 100 -concurrency 100 -hours 0.25 -verify || exit 1; \
	curl -sf http://127.0.0.1:19091/metrics -o /tmp/eagleeyed-metrics.txt || exit 1; \
	$(eed_stop); \
	for series in eagleeyed_sessions_created_total eagleeyed_sessions_active \
		eagleeyed_runs_total eagleeyed_run_seconds_bucket \
		eagleeyed_queue_depth eagleeyed_admission_rejects_total \
		eagleeyed_requests_total eagleeye_frames_total; do \
		grep -q "^$$series" /tmp/eagleeyed-metrics.txt \
			|| { echo "serve-smoke: missing series $$series"; exit 1; }; \
	done; \
	echo "serve-smoke: 100 verified concurrent sessions, server series live"
	$(call eed_boot,127.0.0.1:19092,-workers 1 -queue 1); \
	/tmp/eagleeye-loadgen -addr 127.0.0.1:19092 \
		-sessions 6 -concurrency 6 -hours 24 > /tmp/eagleeyed-saturation.txt || \
		{ cat /tmp/eagleeyed-saturation.txt; exit 1; }; \
	cat /tmp/eagleeyed-saturation.txt; \
	curl -sf http://127.0.0.1:19092/metrics -o /tmp/eagleeyed-metrics2.txt || exit 1; \
	$(eed_stop); \
	grep -q '429-retries=[1-9]' /tmp/eagleeyed-saturation.txt \
		|| { echo "serve-smoke: saturation produced no 429 backpressure"; exit 1; }; \
	grep -Eq 'eagleeyed_admission_rejects_total\{reason="queue"\} [1-9]' /tmp/eagleeyed-metrics2.txt \
		|| { echo "serve-smoke: rejects{queue} did not move"; exit 1; }; \
	echo "serve-smoke: saturation produced 429 backpressure with zero drops"

# Long-horizon durability smoke, mirroring the PR 7 acceptance criteria.
# Phase 1: the week-long simulations -- a static world with mid-week
# fault events, and a moving world of 20k targets re-indexed every hour
# -- must complete with the live heap under a fixed ceiling. The tests
# assert it via runtime.MemStats, which catches any regression back to
# per-frame result state or to an index that keeps every epoch it has
# built; a one-shot week of airplanes must peak within 1.5x of a one-shot
# day. Phase 2: kill-restore-verify for
# eagleeyed -- create a continuous session with a scheduled fault, step
# it partway, SIGTERM the daemon (spooling the session to
# -checkpoint-dir), restart on the same spool, finish the resumed
# session, and require its cumulative result to equal an uninterrupted
# run of the same scenario on every deterministic field.
longhorizon-smoke:
	$(GO) test -run 'TestLongHorizonMemoryBounded|TestLongHorizonMovingMemoryBounded|TestOneShotMemoryBounded' -count=1 ./internal/sim
	$(GO) build -o /tmp/eagleeyed ./cmd/eagleeyed
	rm -rf /tmp/eagleeye-spool; \
	SC='{"dataset":"ships","satellites":4,"duration_hours":2,"seed":7,"continuous":true,"events":[{"at_hours":0.5,"kind":"follower-fail"}]}'; \
	$(call eed_boot,127.0.0.1:19093,-checkpoint-dir /tmp/eagleeye-spool); \
	curl -sf -X POST -d "$$SC" http://127.0.0.1:19093/v1/sessions -o /dev/null || exit 1; \
	curl -sf -X POST -d '{"hours":0.6}' http://127.0.0.1:19093/v1/sessions/s1/step -o /dev/null || exit 1; \
	$(eed_stop); \
	test -f /tmp/eagleeye-spool/s1.ckpt \
		|| { echo "longhorizon-smoke: SIGTERM spooled nothing"; exit 1; }; \
	$(call eed_boot,127.0.0.1:19093,-checkpoint-dir /tmp/eagleeye-spool); \
	curl -sf -X POST -d '{"hours":0}' http://127.0.0.1:19093/v1/sessions/s1/step -o /tmp/ee-lh-resumed.json || exit 1; \
	curl -sf -X POST -d "$$SC" http://127.0.0.1:19093/v1/sessions -o /dev/null || exit 1; \
	curl -sf -X POST -d '{"hours":0}' http://127.0.0.1:19093/v1/sessions/s2/step -o /tmp/ee-lh-full.json || exit 1; \
	$(eed_stop); \
	for f in Frames Detections Captures HighResCaptured CoveragePct CrosslinkKB EventsApplied SatsFailed; do \
		a=$$(grep -o "\"$$f\":[^,}]*" /tmp/ee-lh-resumed.json | head -1); \
		b=$$(grep -o "\"$$f\":[^,}]*" /tmp/ee-lh-full.json | head -1); \
		{ [ -n "$$a" ] && [ "$$a" = "$$b" ]; } \
			|| { echo "longhorizon-smoke: $$f diverges after restore: $$a vs $$b"; exit 1; }; \
	done; \
	grep -q '"EventsApplied":1' /tmp/ee-lh-resumed.json \
		|| { echo "longhorizon-smoke: fault event not applied"; exit 1; }; \
	echo "longhorizon-smoke: kill-restore-verify passed (restored == uninterrupted)"

# Flight-recorder smoke: boot eagleeyed with span tracing on, force a
# deterministic request-deadline anomaly (a 1 ms request timeout against
# a real run), let the run finish in the background, then require the
# whole explain-any-request chain to hold: the 504's X-Request-ID appears
# in the structured log, in the session's /v1/sessions/{id}/flight dump,
# and in the /debug/flight aggregate, and eeinspect parses both dumps and
# finds at least one pinned anomaly.
flight-smoke:
	$(GO) build -o /tmp/eagleeyed ./cmd/eagleeyed
	$(GO) build -o /tmp/eeinspect ./cmd/eeinspect
	$(call eed_boot,127.0.0.1:19094,-workers 1 -request-timeout 50ms 2> /tmp/eagleeyed-flight.log); \
	curl -sf -X POST -d '{"dataset":"ships","satellites":4,"duration_hours":24,"seed":7}' \
		http://127.0.0.1:19094/v1/sessions -o /dev/null || exit 1; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST \
		-H 'X-Request-ID: flight-smoke-req' \
		http://127.0.0.1:19094/v1/sessions/s1/run); \
	[ "$$code" = 504 ] || { echo "flight-smoke: expected 504, got $$code"; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -s http://127.0.0.1:19094/v1/sessions/s1 | grep -q '"runs":1' && break; \
		sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:19094/v1/sessions/s1/flight -o /tmp/ee-flight-s1.json || exit 1; \
	curl -sf http://127.0.0.1:19094/debug/flight -o /tmp/ee-flight-all.json || exit 1; \
	$(eed_stop); \
	grep -q '"request_id":"flight-smoke-req"' /tmp/eagleeyed-flight.log \
		|| { echo "flight-smoke: request ID missing from structured log"; exit 1; }; \
	grep -q '"status":504' /tmp/eagleeyed-flight.log \
		|| { echo "flight-smoke: 504 missing from structured log"; exit 1; }; \
	grep -qE '"request": *"flight-smoke-req"' /tmp/ee-flight-s1.json \
		|| { echo "flight-smoke: request ID missing from flight dump"; exit 1; }; \
	grep -q 'request-deadline' /tmp/ee-flight-s1.json \
		|| { echo "flight-smoke: no request-deadline anomaly in flight dump"; exit 1; }; \
	/tmp/eeinspect -require-anomaly /tmp/ee-flight-s1.json > /tmp/ee-flight-report.txt \
		|| { echo "flight-smoke: eeinspect found no pinned anomaly"; cat /tmp/ee-flight-report.txt; exit 1; }; \
	/tmp/eeinspect /tmp/ee-flight-all.json > /dev/null \
		|| { echo "flight-smoke: eeinspect rejects /debug/flight aggregate"; exit 1; }; \
	grep -q 'request-deadline' /tmp/ee-flight-report.txt \
		|| { echo "flight-smoke: anomaly missing from eeinspect report"; exit 1; }; \
	echo "flight-smoke: 504 request correlated across log, flight dump and eeinspect"

figures:
	$(GO) run ./cmd/figures
