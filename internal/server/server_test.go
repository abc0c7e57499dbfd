package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eagleeye"
	"eagleeye/internal/obs"
)

// testWorld builds a small deterministic custom-target scenario so
// server tests run in milliseconds, not dataset-scale seconds.
func testWorld(n int) []TargetSpec {
	centers := []TargetSpec{
		{Lat: 0, Lon: 0}, {Lat: 20, Lon: 40}, {Lat: -30, Lon: 120},
		{Lat: 50, Lon: -80}, {Lat: -10, Lon: -60},
	}
	out := make([]TargetSpec, 0, n)
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		out = append(out, TargetSpec{
			Lat: c.Lat + float64(i%17)*0.2 - 1.6,
			Lon: c.Lon + float64(i%13)*0.2 - 1.2,
		})
	}
	return out
}

// gridWorld covers the globe between +-60 degrees so satellites hit
// targets on every pass -- scenarios built on it deterministically emit
// trace records (the hook the admission tests use to pin a worker).
func gridWorld() []TargetSpec {
	var out []TargetSpec
	for lat := -60; lat <= 60; lat += 5 {
		for lon := -180; lon < 180; lon += 5 {
			out = append(out, TargetSpec{Lat: float64(lat), Lon: float64(lon)})
		}
	}
	return out
}

func gridScenario(hours float64) ScenarioConfig {
	return ScenarioConfig{Satellites: 2, Targets: gridWorld(), DurationHours: hours, Seed: 7}
}

func testScenario(hours float64) ScenarioConfig {
	return ScenarioConfig{
		Satellites:    2,
		Targets:       testWorld(300),
		DurationHours: hours,
		Seed:          7,
	}
}

// newTestServer starts a server + HTTP listener and tears both down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(30 * time.Second)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(b))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		buf.WriteString(sc.Text())
		buf.WriteByte('\n')
	}
	return resp, []byte(buf.String())
}

func createSession(t *testing.T, base string, sc ScenarioConfig) string {
	t.Helper()
	resp, body := doJSON(t, "POST", base+"/v1/sessions", sc)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// TestHandlerTable drives the API through its request-validation and
// lifecycle paths.
func TestHandlerTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	valid := testScenario(0.2)
	id := createSession(t, base, valid)

	cases := []struct {
		name   string
		method string
		path   string
		body   string // raw JSON; empty means no body
		want   int
	}{
		{"create malformed json", "POST", "/v1/sessions", `{"satellites": "two"}`, 400},
		{"create unknown field", "POST", "/v1/sessions", `{"satelites": 2}`, 400},
		{"create unknown dataset", "POST", "/v1/sessions", `{"dataset":"nope"}`, 400},
		{"create empty scenario", "POST", "/v1/sessions", `{}`, 400},
		{"create bad organization", "POST", "/v1/sessions", `{"dataset":"ships","organization":"weird"}`, 400},
		{"get unknown", "GET", "/v1/sessions/s999", "", 404},
		{"run unknown", "POST", "/v1/sessions/s999/run", "", 404},
		{"step unknown", "POST", "/v1/sessions/s999/step", `{"hours":1}`, 404},
		{"delete unknown", "DELETE", "/v1/sessions/s999", "", 404},
		{"step malformed body", "POST", "/v1/sessions/" + id + "/step", `{"hours": "one"}`, 400},
		{"step unknown field", "POST", "/v1/sessions/" + id + "/step", `{"hrs": 1}`, 400},
		{"step negative hours", "POST", "/v1/sessions/" + id + "/step", `{"hours": -1}`, 400},
		{"list ok", "GET", "/v1/sessions", "", 200},
		{"get ok", "GET", "/v1/sessions/" + id, "", 200},
		{"healthz ok", "GET", "/healthz", "", 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}

	// Lifecycle: run, query, delete, then the id is gone.
	resp, body := doJSON(t, "POST", base+"/v1/sessions/"+id+"/run", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil || rr.Result == nil {
		t.Fatalf("run response %q: %v", body, err)
	}
	if rr.Result.Frames == 0 {
		t.Error("run simulated no frames")
	}
	resp, body = doJSON(t, "GET", base+"/v1/sessions/"+id, nil)
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Runs != 1 || info.State != "idle" || info.Aggregate.Steps != 1 || info.LastResult == nil {
		t.Errorf("after run: %+v", info)
	}
	if resp, _ := doJSON(t, "DELETE", base+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", base+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted session still queryable: %d", resp.StatusCode)
	}
}

// TestCreateBoundsSatellites: a short create body naming more satellites
// than eagleeye.MaxSatellites is refused with 400 before any dataset or
// constellation is built for it.
func TestCreateBoundsSatellites(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(0)
	h := s.Handler()
	body := `{"dataset":"ships","satellites":2000000000}`
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("create with 2e9 satellites = %d, want 400: %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting a %d-byte body allocated %d bytes, want < 1 MiB", len(body), got)
	}
}

// TestCreateAndStepBoundDuration: create and step bodies naming a span
// above eagleeye.MaxDurationHours are refused with 400. A 1e308 h span
// overflows to +Inf seconds, so its run would hold a worker forever.
func TestCreateAndStepBoundDuration(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(0)
	h := s.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	for _, body := range []string{
		`{"dataset":"ships","duration_hours":1e308}`,
		`{"dataset":"ships","duration_hours":8761}`,
	} {
		if rec := post("/v1/sessions", body); rec.Code != http.StatusBadRequest {
			t.Errorf("create %s = %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
	e, aerr := s.createSession(testScenario(0.2))
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	for _, body := range []string{`{"hours":1e308}`, `{"hours":8761}`} {
		if rec := post("/v1/sessions/"+e.id+"/step", body); rec.Code != http.StatusBadRequest {
			t.Errorf("step %s = %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
}

// FuzzCreateBody: any create body gets 201 or a 4xx, never a panic, and
// a created session stays within the duration and satellite bounds.
func FuzzCreateBody(f *testing.F) {
	f.Add(`{"dataset":"ships","duration_hours":1e308}`)
	f.Add(`{"dataset":"ships","duration_hours":8761}`)
	f.Add(`{"dataset":"ships","satellites":2000000000}`)
	f.Add(`{"dataset":"ships","satellites":4,"duration_hours":8760}`)
	s := New(Config{})
	defer s.Shutdown(0)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body)))
		if rec.Code != http.StatusCreated {
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("create %q = %d, want 201 or 4xx: %s", body, rec.Code, rec.Body)
			}
			return
		}
		var info SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		e := s.lookup(info.ID)
		if e == nil {
			t.Fatalf("created session %q not in the table", info.ID)
		}
		cfg := e.sess.Config()
		s.deleteSession(info.ID)
		if cfg.DurationHours > eagleeye.MaxDurationHours || cfg.Satellites > eagleeye.MaxSatellites {
			t.Fatalf("create %q made a session of %v h and %d satellites", body, cfg.DurationHours, cfg.Satellites)
		}
	})
}

// TestStepAccumulatesAggregate pins the windowed-session semantics.
func TestStepAccumulatesAggregate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, testScenario(1))
	for i := 0; i < 2; i++ {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", StepRequest{Hours: 0.25})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	_, body := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil)
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Aggregate.Steps != 2 || info.Aggregate.SimulatedHours != 0.5 {
		t.Errorf("aggregate = %+v, want 2 steps / 0.5 h", info.Aggregate)
	}
	if info.Aggregate.Frames == 0 {
		t.Error("steps simulated no frames")
	}
}

// TestConcurrentSessionsMatchDirectRun is the serving-stack identity
// gate: many sessions running concurrently through the daemon must each
// produce exactly the result of a direct library run -- pooled solver
// state reused across requests must never leak between tenants. Run
// under -race by the tier-1 gate.
func TestConcurrentSessionsMatchDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64, MaxSessions: 64})
	sc := testScenario(0.5)

	want, err := eagleeye.Run(eagleeye.Config{
		Satellites:    sc.Satellites,
		Targets:       toEagleTargets(sc.Targets),
		DurationHours: sc.DurationHours,
		Seed:          sc.Seed,
		Workers:       1,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("session %d", i)
			cresp, cbody := doJSON(t, "POST", ts.URL+"/v1/sessions", sc)
			if cresp.StatusCode != http.StatusCreated {
				errs[i] = fmt.Errorf("%s: create = %d: %s", id, cresp.StatusCode, cbody)
				return
			}
			var info SessionInfo
			if err := json.Unmarshal(cbody, &info); err != nil {
				errs[i] = err
				return
			}
			for {
				rresp, rbody := doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/run", nil)
				if rresp.StatusCode == http.StatusTooManyRequests {
					time.Sleep(50 * time.Millisecond)
					continue
				}
				if rresp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("%s: run = %d: %s", id, rresp.StatusCode, rbody)
					return
				}
				var rr RunResponse
				if err := json.Unmarshal(rbody, &rr); err != nil {
					errs[i] = err
					return
				}
				if rr.Result == nil ||
					rr.Result.HighResCaptured != want.HighResCaptured ||
					rr.Result.Detections != want.Detections ||
					rr.Result.Captures != want.Captures ||
					rr.Result.Frames != want.Frames ||
					rr.Result.CrosslinkKB != want.CrosslinkKB ||
					rr.Result.CoveragePct != want.CoveragePct ||
					rr.Result.LeaderEnergyUtilization != want.LeaderEnergyUtilization {
					errs[i] = fmt.Errorf("%s diverged:\nwant %+v\ngot  %+v", id, want, rr.Result)
				}
				return
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func toEagleTargets(specs []TargetSpec) []eagleeye.Target {
	out := make([]eagleeye.Target, len(specs))
	for i, s := range specs {
		out[i] = eagleeye.Target{Lat: s.Lat, Lon: s.Lon, SpeedMS: s.SpeedMS, HeadingDeg: s.HeadingDeg, Value: s.Value}
	}
	return out
}

// TestStreamedTrace asserts the NDJSON run endpoint: frame records, then
// one terminal result line.
func TestStreamedTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, testScenario(1))
	resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/run?trace=ndjson", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed run = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want trace + result", len(lines))
	}
	var final RunResponse
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("terminal line: %v (%q)", err, lines[len(lines)-1])
	}
	if final.Result == nil || final.Error != "" {
		t.Fatalf("terminal line missing result: %+v", final)
	}
	// Every preceding line is a frame record.
	for _, ln := range lines[:len(lines)-1] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		if _, ok := rec["frame"]; !ok {
			t.Errorf("trace line without frame field: %q", ln)
		}
	}
}

// TestRequestDeadline: a run that cannot start before the request
// deadline answers 504 while the run itself completes in the background
// and lands on the session. The single worker is pinned inside another
// session's run, so the 504 is deterministic.
func TestRequestDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	holder := createSession(t, ts.URL, gridScenario(1))
	b := createSession(t, ts.URL, testScenario(0.2))

	release, holdDone := holdRun(t, s, holder)
	t.Cleanup(release)
	pollUntil(t, "holder session running", 10*time.Second, func() bool {
		return sessionState(t, ts.URL, holder).State == "running"
	})

	resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions/"+b+"/run", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("run past deadline = %d, want 504", resp.StatusCode)
	}

	// Free the worker; the abandoned run executes and lands on the session.
	release()
	if rr := <-holdDone; rr.err != nil {
		t.Fatalf("held run: %v", rr.err)
	}
	pollUntil(t, "background run to land", 60*time.Second, func() bool {
		info := sessionState(t, ts.URL, b)
		return info.Runs == 1 && info.State == "idle" && info.LastResult != nil
	})
}

// TestMetricsWired asserts the server series move with the API.
func TestMetricsWired(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg})
	id := createSession(t, ts.URL, testScenario(0.2))
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/run", nil); resp.StatusCode != 200 {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	if got := reg.CounterValue("eagleeyed_sessions_created_total"); got != 1 {
		t.Errorf("sessions_created = %d", got)
	}
	if got := reg.GaugeValue("eagleeyed_sessions_active"); got != 1 {
		t.Errorf("sessions_active = %v", got)
	}
	if got := reg.CounterValue("eagleeyed_runs_total"); got != 1 {
		t.Errorf("runs_total = %d", got)
	}
	if got := reg.CounterValue("eagleeyed_requests_total",
		obs.Label{Key: "route", Value: "run"}, obs.Label{Key: "code", Value: "200"}); got != 1 {
		t.Errorf("requests_total{run,200} = %d", got)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil)
	if got := reg.GaugeValue("eagleeyed_sessions_active"); got != 0 {
		t.Errorf("sessions_active after delete = %v", got)
	}
	// The simulator's own series flow into the same registry.
	if got := reg.CounterValue("eagleeye_frames_total"); got == 0 {
		t.Error("run emitted no simulator frame metrics")
	}
}

// TestRaceGetDuringRun polls session info while a run executes: GET
// handlers read the session's progress (Done, Aggregate) while a worker
// steps it. Run under -race it pins that those reads are synchronized.
func TestRaceGetDuringRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := createSession(t, ts.URL, gridScenario(0.3))

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/run", nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("run = %d: %s", resp.StatusCode, body)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		resp, _ := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get = %d", resp.StatusCode)
		}
	}
}
