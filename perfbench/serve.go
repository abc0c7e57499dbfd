package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"eagleeye"
	"eagleeye/internal/dataset"
	"eagleeye/internal/obs"
	"eagleeye/internal/server"
)

// serve-mix: an in-process server.New (2 workers, metrics registry on,
// per-session flight recording on, as cmd/eagleeyed deploys it) whose
// Handler is called directly, so the benchmark holds no sockets. Tenants
// arrive open-loop at tenantRate; each runs its sessions in turn, closed
// loop: create a 2-satellite continuous session, step it steps times,
// checkpoint it, delete it. A second open-loop stream of GETs reads the
// session and flight endpoints of sessions that have a step in flight.
type serveMix struct {
	tenantRate float64  // tenants per second
	readRate   float64  // GETs per second
	sessions   []string // datasets a tenant runs, in order
	steps      int      // steps per session
	stepHours  float64  // simulated hours per step
	scenarios  int      // distinct scenario seeds per dataset
	replay     int      // tenants replayed through the library when traced
}

// serveFull's tenant rate keeps the two workers about a third busy on a
// 2-CPU machine (server.run_ms over twice the wall time, from a traced
// run). At higher rates a slow spell of the host let the queue run away:
// at 6 tenants/s (~75% busy) the step p50 of one run in five went from
// 16 ms to 370 ms, and at 4/s the p90 of three runs in ten went from
// 45 ms to 110-180 ms. Ships sessions are cheap; airplanes sessions carry
// the load, and
// running two of them per tenant puts the step median and p90 inside the
// airplanes steps rather than in the gap between the two datasets.
var (
	serveFull = serveMix{tenantRate: 2.5, readRate: 20, sessions: []string{"ships", "airplanes", "airplanes"},
		steps: 4, stepHours: 0.25, scenarios: 32, replay: 6}
	// serveTiny keeps GETs out: reading a session while it steps is the
	// known Session data race, which the race detector would report.
	serveTiny = serveMix{tenantRate: 4, readRate: 0, sessions: []string{"ships", "airplanes"},
		steps: 2, stepHours: 0.1, scenarios: 2, replay: 1}
)

// scenario identifies one session's input: dataset and seed.
type scenario struct {
	dataset string
	seed    int64
}

func (m serveMix) scenario(seed int64, tenant, session int) scenario {
	k := tenant % m.scenarios
	return scenario{dataset: m.sessions[session], seed: 1 + derive(seed, k*len(m.sessions)+session)%1000000}
}

func (m serveMix) wire(sc scenario) server.ScenarioConfig {
	return server.ScenarioConfig{Dataset: sc.dataset, Satellites: 2, DurationHours: float64(m.steps) * m.stepHours,
		Seed: sc.seed, Continuous: true}
}

func (m serveMix) library(sc scenario) eagleeye.Config {
	return eagleeye.Config{Dataset: sc.dataset, Satellites: 2, DurationHours: float64(m.steps) * m.stepHours,
		Seed: sc.seed, Continuous: true, Workers: 1}
}

// liveSession is a created, not yet deleted session. guard keeps a read in
// flight from racing the tenant's delete into a 404.
type liveSession struct {
	id       string
	stepping bool
	guard    sync.RWMutex
}

type served struct {
	sc  scenario
	res *eagleeye.Result
}

// harness drives one server through one open-loop pass.
type harness struct {
	mix     serveMix
	seed    int64
	reg     *obs.Registry
	srv     *server.Server
	handler http.Handler

	mu        sync.Mutex
	attempted int
	failures  []string
	stepMS    []float64
	readMS    []float64
	lagMS     []float64
	depthMax  float64
	live      []*liveSession
	results   []served
	reads     int
}

func newHarness(m serveMix, seed int64, log *slog.Logger) *harness {
	reg := obs.NewRegistry()
	srv := server.New(server.Config{Workers: 2, Metrics: reg, Log: log})
	return &harness{mix: m, seed: seed, reg: reg, srv: srv, handler: srv.Handler()}
}

func (h *harness) close() {
	if err := h.srv.Shutdown(time.Minute); err != nil {
		h.fail(fmt.Errorf("shutdown: %w", err))
	}
}

func (h *harness) fail(err error) {
	h.mu.Lock()
	h.failures = append(h.failures, err.Error())
	h.mu.Unlock()
}

// call serves one request through the handler and checks its status.
func (h *harness) call(method, path string, body any, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.handler.ServeHTTP(rec, req)
	h.mu.Lock()
	h.attempted++
	h.mu.Unlock()
	if rec.Code != want {
		err := fmt.Errorf("%s %s = %d, want %d: %s", method, path, rec.Code, want, bytes.TrimSpace(rec.Body.Bytes()))
		h.fail(err)
		return nil, err
	}
	return rec.Body.Bytes(), nil
}

func (h *harness) sampleDepth() {
	d := h.reg.GaugeValue("eagleeyed_queue_depth")
	h.mu.Lock()
	if d > h.depthMax {
		h.depthMax = d
	}
	h.mu.Unlock()
}

// tenant runs one tenant's sessions, closed loop. Step latency is timed
// from the moment the step was due: the previous response.
func (h *harness) tenant(t int) {
	for j := range h.mix.sessions {
		sc := h.mix.scenario(h.seed, t, j)
		body, err := h.call("POST", "/v1/sessions", h.mix.wire(sc), http.StatusCreated)
		if err != nil {
			return
		}
		var info server.SessionInfo
		if err := json.Unmarshal(body, &info); err != nil {
			h.fail(fmt.Errorf("create response: %w", err))
			return
		}
		ls := &liveSession{id: info.ID}
		h.mu.Lock()
		h.live = append(h.live, ls)
		h.mu.Unlock()
		var last *eagleeye.Result
		for k := 0; k < h.mix.steps; k++ {
			h.mu.Lock()
			ls.stepping = true
			h.mu.Unlock()
			h.sampleDepth()
			start := time.Now()
			body, err := h.call("POST", "/v1/sessions/"+ls.id+"/step", server.StepRequest{Hours: h.mix.stepHours}, http.StatusOK)
			lat := ms(time.Since(start))
			h.mu.Lock()
			ls.stepping = false
			if err == nil {
				h.stepMS = append(h.stepMS, lat)
			}
			h.mu.Unlock()
			if err != nil {
				break
			}
			var rr server.RunResponse
			if err := json.Unmarshal(body, &rr); err != nil || rr.Result == nil {
				h.fail(fmt.Errorf("step response for %s: %v", ls.id, err))
				break
			}
			last = rr.Result
		}
		if ck, err := h.call("POST", "/v1/sessions/"+ls.id+"/checkpoint", nil, http.StatusOK); err == nil && !bytes.HasPrefix(ck, []byte("EESESSV1")) {
			h.fail(fmt.Errorf("checkpoint of %s is not a session checkpoint", ls.id))
		}
		h.mu.Lock()
		for i, s := range h.live {
			if s == ls {
				h.live = append(h.live[:i], h.live[i+1:]...)
				break
			}
		}
		h.mu.Unlock()
		ls.guard.Lock()
		_, _ = h.call("DELETE", "/v1/sessions/"+ls.id, nil, http.StatusNoContent)
		ls.guard.Unlock()
		if last != nil {
			h.mu.Lock()
			h.results = append(h.results, served{sc, last})
			h.mu.Unlock()
		}
	}
}

// read issues one GET against a session with a step in flight (any live
// session when none is stepping); with no live session it does nothing.
func (h *harness) read(due time.Time) {
	h.mu.Lock()
	var pick *liveSession
	var stepping []*liveSession
	for _, s := range h.live {
		if s.stepping {
			stepping = append(stepping, s)
		}
	}
	cands := stepping
	if len(cands) == 0 {
		cands = h.live
	}
	if len(cands) > 0 {
		pick = cands[h.reads%len(cands)]
		pick.guard.RLock()
	}
	n := h.reads
	h.reads++
	h.mu.Unlock()
	if pick == nil {
		return
	}
	defer pick.guard.RUnlock()
	path := "/v1/sessions/" + pick.id
	if n%2 == 1 {
		path += "/flight"
	}
	h.sampleDepth()
	if _, err := h.call("GET", path, nil, http.StatusOK); err == nil {
		lat := ms(time.Since(due))
		h.mu.Lock()
		h.readMS = append(h.readMS, lat)
		h.mu.Unlock()
	}
}

// openLoop runs both generators for the given time and waits for every
// tenant and read to finish. It returns the wall time until the drain.
func (h *harness) openLoop(seconds float64) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	gen := func(rate float64, fire func(i int, due time.Time)) {
		defer wg.Done()
		if rate <= 0 {
			return
		}
		for i := 0; float64(i)/rate < seconds; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			lag := ms(time.Since(due))
			h.mu.Lock()
			h.lagMS = append(h.lagMS, lag)
			h.mu.Unlock()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fire(i, due)
			}(i)
		}
	}
	wg.Add(2)
	go gen(h.mix.tenantRate, func(i int, _ time.Time) { h.tenant(i) })
	go gen(h.mix.readRate, func(_ int, due time.Time) { h.read(due) })
	wg.Wait()
	return time.Since(start)
}

// warmUp runs one tenant to completion -- the set-up that fills the
// solver pools and code paths -- then clears what it recorded.
func (h *harness) warmUp() {
	h.tenant(h.mix.scenarios - 1)
	h.mu.Lock()
	h.attempted, h.failures = 0, nil
	h.stepMS, h.readMS, h.lagMS, h.results = nil, nil, nil, nil
	h.depthMax = 0
	h.mu.Unlock()
}

// verify compares every served session's cumulative result with a library
// run of the same scenario, the way loadgen -verify does.
func (h *harness) verify(o *outcome) {
	want := make(map[scenario]*eagleeye.Result)
	for _, s := range h.results {
		w, ok := want[s.sc]
		if !ok {
			r, err := eagleeye.Run(h.mix.library(s.sc))
			o.op(err)
			if err != nil {
				continue
			}
			w = r
			want[s.sc] = r
		}
		o.check(sameResult(w, s.res), "served %s seed %d diverged from the library run: %+v vs %+v", s.sc.dataset, s.sc.seed, s.res, w)
	}
}

// sameResult compares the fields identical across processes at a fixed
// seed (loadgen's deterministic set).
func sameResult(a, b *eagleeye.Result) bool {
	return a.TotalTargets == b.TotalTargets && a.Frames == b.Frames && a.Detections == b.Detections &&
		a.Captures == b.Captures && a.HighResCaptured == b.HighResCaptured &&
		a.CoveragePct == b.CoveragePct && a.LowResSeenPct == b.LowResSeenPct && a.CrosslinkKB == b.CrosslinkKB &&
		a.DownlinkableFraction == b.DownlinkableFraction &&
		a.LeaderEnergyUtilization == b.LeaderEnergyUtilization && a.FollowerEnergyUtilization == b.FollowerEnergyUtilization
}

// collect moves the harness's request accounting into the outcome.
func (h *harness) collect(o *outcome) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o.attempted += h.attempted
	o.failed += len(h.failures)
	for _, f := range h.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
}

// coverage pools high-resolution coverage over every served session.
func (h *harness) coverage() float64 {
	var captured, total float64
	for _, s := range h.results {
		captured += float64(s.res.HighResCaptured)
		total += float64(s.res.TotalTargets)
	}
	if total == 0 {
		return 0
	}
	return 100 * captured / total
}

// setupServer starts a server and warms it up with one tenant; the run
// keeps the last of three and reports their median as setup_s.
func setupServer(m serveMix, seed int64, log *slog.Logger, reps int) (*harness, []float64) {
	var h *harness
	var setups []float64
	for i := 0; i < reps; i++ {
		if h != nil {
			h.close()
		}
		start := time.Now()
		h = newHarness(m, seed, log)
		h.warmUp()
		setups = append(setups, time.Since(start).Seconds())
	}
	return h, setups
}

func runServeMix(c runConfig) (*outcome, error) {
	m := serveFull
	if c.tiny {
		m = serveTiny
	}
	if c.trace {
		return traceServeMix(c, m)
	}
	o := newOutcome()
	h, setups := setupServer(m, c.seed, nil, 3)
	wall := h.openLoop(c.seconds)
	h.close()
	h.collect(o)
	h.verify(o)
	o.e2e("setup_s", median(setups))
	o.e2e("peak_rss_mb", peakRSSMB())
	o.e2e("work_per_s", float64(len(h.stepMS))/wall.Seconds())
	o.e2e("op_p50_ms", pct(h.stepMS, 50))
	o.e2e("op_p90_ms", pct(h.stepMS, 90))
	o.e2e("coverage_pct", h.coverage())
	o.counters["steps"] = int64(len(h.stepMS))
	o.counters["sessions"] = int64(len(h.results))
	return o, nil
}

// histSum reads a server histogram's running sum, in ms.
func histSum(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	return 1000 * reg.Histogram(name, "", obs.DefTimeBuckets, labels...).Snapshot().Sum
}

func rejects(reg *obs.Registry) float64 {
	n := 0.0
	for _, reason := range []string{"sessions", "queue", "draining", "busy"} {
		n += float64(reg.CounterValue("eagleeyed_admission_rejects_total", obs.Label{Key: "reason", Value: reason}))
	}
	return n
}

// traceServeMix runs the open loop twice, plain and then with the
// server's structured request log attached, reads the per-layer numbers
// from the server registry of the logged pass, and replays the first
// tenants' sessions through the library to time the eagleeye layer.
func traceServeMix(c runConfig, m serveMix) (*outcome, error) {
	o := newLayerOutcome()
	pass := c.seconds / 2

	plain, _ := setupServer(m, c.seed, nil, 1)
	plain.openLoop(pass)
	plain.close()
	plain.collect(o)
	plain.verify(o)

	var logBuf bytes.Buffer
	logged, _ := setupServer(m, c.seed, slog.New(slog.NewJSONHandler(&syncWriter{w: &logBuf}, nil)), 1)
	stepRoute := obs.Label{Key: "route", Value: "step"}
	before := readRegistry(logged.reg)
	runBefore, reqBefore, rejBefore := histSum(logged.reg, "eagleeyed_run_seconds"), histSum(logged.reg, "eagleeyed_request_seconds", stepRoute), rejects(logged.reg)
	logged.openLoop(pass)
	rd := readRegistry(logged.reg).minus(before)
	runMS := histSum(logged.reg, "eagleeyed_run_seconds") - runBefore
	reqMS := histSum(logged.reg, "eagleeyed_request_seconds", stepRoute) - reqBefore
	rej := rejects(logged.reg) - rejBefore
	logged.close()
	logged.collect(o)
	logged.verify(o)

	o.apply(rd)
	o.layer("server.run_ms", runMS)
	o.layer("server.queue_wait_ms", reqMS-runMS)
	o.layer("server.queue_depth_max", logged.depthMax)
	o.layer("server.rejects", rej)
	o.layer("server.read_p50_ms", pct(logged.readMS, 50))
	o.layer("server.read_p90_ms", pct(logged.readMS, 90))
	o.layer("gen.lag_p99_ms", pct(logged.lagMS, 99))
	o.layer("obs.trace_overhead_pct", 100*(mean(logged.stepMS)/mean(plain.stepMS)-1))
	o.reconcile("serve-mix", sum(logged.stepMS))
	o.check(logBuf.Len() > 0, "the request log is empty")

	replaySessions(o, m, c.seed, logged.results)
	builds, buildMS := serveIndexBuilds(m, c.seed, logged.results)
	o.layer("dataset.index_builds", float64(builds))
	o.layer("dataset.index_build_ms", buildMS)
	o.counters["steps"] = int64(len(logged.stepMS))
	o.counters["index_builds"] = int64(builds)
	return o, nil
}

// replaySessions times the first tenants' session sequences directly
// through eagleeye.NewSession, Step and Checkpoint, and checks each
// replay ends where the served session did.
func replaySessions(o *outcome, m serveMix, seed int64, servedRes []served) {
	byScenario := make(map[scenario]*eagleeye.Result)
	for _, s := range servedRes {
		byScenario[s.sc] = s.res
	}
	var create, step, ckpt []float64
	for t := 0; t < m.replay; t++ {
		for j := range m.sessions {
			sc := m.scenario(seed, t, j)
			start := time.Now()
			sess, err := eagleeye.NewSession(m.library(sc))
			create = append(create, ms(time.Since(start)))
			o.op(err)
			if err != nil {
				continue
			}
			var res *eagleeye.Result
			for k := 0; k < m.steps && err == nil; k++ {
				start = time.Now()
				res, err = sess.Step(eagleeye.StepOptions{Hours: m.stepHours})
				step = append(step, ms(time.Since(start)))
				o.op(err)
			}
			start = time.Now()
			err = sess.Checkpoint(io.Discard)
			ckpt = append(ckpt, ms(time.Since(start)))
			o.op(err)
			sess.Close()
			if want, ok := byScenario[sc]; ok && res != nil {
				o.check(sameResult(want, res), "library replay of %s seed %d differs from the served session", sc.dataset, sc.seed)
			}
		}
	}
	o.layer("session.create_ms", mean(create))
	o.layer("session.step_ms", mean(step))
	o.layer("session.checkpoint_ms", mean(ckpt))
}

// serveIndexBuilds counts the index buckets the served sessions built
// (one per static session, one per 600 s of a moving one) and estimates
// their time by replaying one session's builds per dataset through
// dataset.NewIndex.
func serveIndexBuilds(m serveMix, seed int64, servedRes []served) (int, float64) {
	perSession := make(map[string]int)
	perBuildMS := make(map[string]float64)
	for j, ds := range m.sessions {
		if _, ok := perSession[ds]; ok {
			continue
		}
		set, err := dataset.ByName(ds, m.scenario(seed, 0, j).seed)
		if err != nil {
			continue
		}
		n := 1
		if set.Moving {
			n = int(math.Ceil(float64(m.steps) * m.stepHours * 3600 / 600))
		}
		start := time.Now()
		for b := 0; b < n; b++ {
			dataset.NewIndex(set, 2, float64(b)*600)
		}
		perSession[ds] = n
		perBuildMS[ds] = ms(time.Since(start)) / float64(n)
	}
	builds, total := 0, 0.0
	for _, s := range servedRes {
		builds += perSession[s.sc.dataset]
		total += float64(perSession[s.sc.dataset]) * perBuildMS[s.sc.dataset]
	}
	return builds, total
}

// syncWriter serializes writes into a shared buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
