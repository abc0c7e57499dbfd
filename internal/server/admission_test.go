package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"eagleeye/internal/obs"
)

// pollUntil retries cond every few milliseconds until it holds or the
// deadline passes.
func pollUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sessionState(t *testing.T, base, id string) SessionInfo {
	t.Helper()
	_, body := doJSON(t, "GET", base+"/v1/sessions/"+id, nil)
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("session %s: %v", id, err)
	}
	return info
}

// gateWriter blocks every Write until the gate opens.
type gateWriter struct{ gate chan struct{} }

func (g gateWriter) Write(p []byte) (int, error) { <-g.gate; return len(p), nil }

// holdRun admits a full run on id whose trace writer blocks until the
// returned release is called. The worker executing it pins inside the
// run -- gridScenario deterministically emits trace records -- so tests
// can observe saturation without any timing assumptions. release is
// idempotent; register it with t.Cleanup so a failing test still drains.
func holdRun(t *testing.T, s *Server, id string) (release func(), done chan jobResult) {
	t.Helper()
	e := s.lookup(id)
	if e == nil {
		t.Fatalf("no session %s", id)
	}
	gate := make(chan struct{})
	j, aerr := s.enqueue(e, 0, "", gateWriter{gate}, nil)
	if aerr != nil {
		t.Fatalf("hold enqueue: %v", aerr)
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }, j.done
}

// TestSessionTableBound: creates past MaxSessions answer 429 and free a
// slot on delete.
func TestSessionTableBound(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{MaxSessions: 2, Metrics: reg})
	sc := testScenario(0.2)

	a := createSession(t, ts.URL, sc)
	createSession(t, ts.URL, sc)
	resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions", sc)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third create = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q", got)
	}
	if got := reg.CounterValue("eagleeyed_admission_rejects_total",
		obs.Label{Key: "reason", Value: "sessions"}); got != 1 {
		t.Errorf("rejects{sessions} = %d", got)
	}
	// A delete frees the slot.
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+a, nil)
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions", sc); resp.StatusCode != http.StatusCreated {
		t.Errorf("create after delete = %d, want 201", resp.StatusCode)
	}
}

// TestQueueSaturation drives the worker pool past its queue bound: with
// one (pinned) worker and a one-deep queue, a third concurrent run
// answers 429 + Retry-After, and a duplicate run on a busy session
// answers 409, without corrupting the session table -- every session
// remains usable afterward. This is the reduced-scale acceptance
// demonstration of the saturation behavior.
func TestQueueSaturation(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg, RequestTimeout: 5 * time.Minute})
	a := createSession(t, ts.URL, gridScenario(1))
	b := createSession(t, ts.URL, testScenario(0.2))
	c := createSession(t, ts.URL, testScenario(0.2))

	// Pin the single worker inside A's run...
	release, aDone := holdRun(t, s, a)
	t.Cleanup(release)
	pollUntil(t, "session A running", 10*time.Second, func() bool {
		return sessionState(t, ts.URL, a).State == "running"
	})

	// ...fill the one queue slot with B...
	bDone := make(chan int, 1)
	go func() {
		resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions/"+b+"/run", nil)
		bDone <- resp.StatusCode
	}()
	pollUntil(t, "queue slot taken by B", 10*time.Second, func() bool {
		return reg.GaugeValue("eagleeyed_queue_depth") == 1
	})

	// ...and the next admission is refused with backpressure.
	resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions/"+c+"/run", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q", got)
	}
	if got := reg.CounterValue("eagleeyed_admission_rejects_total",
		obs.Label{Key: "reason", Value: "queue"}); got < 1 {
		t.Errorf("rejects{queue} = %d", got)
	}
	// A second run on the already-running session is a conflict, not a
	// queue slot.
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions/"+a+"/run", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("run on busy session = %d, want 409", resp.StatusCode)
	}

	// Saturation must not have corrupted the table: A and B complete,
	// C stayed clean and can run now that the worker frees up.
	release()
	if rr := <-aDone; rr.err != nil {
		t.Fatalf("session A run: %v", rr.err)
	}
	if code := <-bDone; code != http.StatusOK {
		t.Fatalf("session B run = %d", code)
	}
	for id, wantRuns := range map[string]int{a: 1, b: 1, c: 0} {
		info := sessionState(t, ts.URL, id)
		if info.State != "idle" || info.Runs != wantRuns {
			t.Errorf("session %s after saturation: state=%s runs=%d, want idle/%d",
				id, info.State, info.Runs, wantRuns)
		}
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions/"+c+"/run", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("run on C after saturation cleared = %d, want 200", resp.StatusCode)
	}
}

// TestGracefulDrain: Shutdown stops admissions (503 on create/run,
// healthz unhealthy) while queries keep answering and the in-flight run
// completes untruncated.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 5 * time.Minute})
	sc := testScenario(0.2)
	a := createSession(t, ts.URL, gridScenario(1))
	idle := createSession(t, ts.URL, sc)

	release, aDone := holdRun(t, s, a)
	t.Cleanup(release)
	pollUntil(t, "session A running", 10*time.Second, func() bool {
		return sessionState(t, ts.URL, a).State == "running"
	})

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(60 * time.Second) }()
	pollUntil(t, "drain to begin", 10*time.Second, s.Draining)

	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions", sc); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("create while draining = %d, want 503", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/sessions/"+idle+"/run", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run while draining = %d, want 503", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	// Queries still answer during the drain so orchestrators can watch it.
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/sessions/"+a, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("query while draining = %d, want 200", resp.StatusCode)
	}

	release()
	if rr := <-aDone; rr.err != nil {
		t.Errorf("in-flight run during drain: %v (must never be truncated)", rr.err)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestAdmissionStress admits thousands of near-instant steps from several
// goroutines against a multi-worker server. A worker can receive a job,
// run it and count it done before the admitting goroutine runs again, so
// admission must count the job (inflight and the queue-depth gauge)
// before it is sent: counting after the send took the inflight WaitGroup
// negative and crashed the process. Each goroutine owns one session, so
// no admission is refused as busy; queue-full refusals are retried.
func TestAdmissionStress(t *testing.T) {
	const clients, steps = 8, 400
	reg := obs.NewRegistry()
	s := New(Config{Workers: 4, QueueDepth: 4, Metrics: reg, DisableFlight: true})
	defer func() { _ = s.Shutdown(time.Minute) }()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		e, aerr := s.createSession(ScenarioConfig{Satellites: 2, Targets: testWorld(5), DurationHours: 0.001, Seed: int64(c)})
		if aerr != nil {
			t.Fatalf("create: %v", aerr)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; done < steps; {
				j, aerr := s.enqueue(e, 0, "", nil, nil)
				if aerr != nil {
					if aerr.reason != "queue" {
						t.Errorf("admission refused: %v", aerr)
						return
					}
					runtime.Gosched()
					continue
				}
				if rr := <-j.done; rr.err != nil {
					t.Errorf("step: %v", rr.err)
					return
				}
				done++
			}
		}()
	}
	wg.Wait()
	if got := reg.GaugeValue("eagleeyed_queue_depth"); got != 0 {
		t.Errorf("queue depth gauge = %v after every job finished, want 0", got)
	}
	if got := reg.CounterValue("eagleeyed_runs_total"); got != clients*steps {
		t.Errorf("runs = %d, want %d", got, clients*steps)
	}
}
