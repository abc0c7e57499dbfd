// Package server turns the eagleeye library into a long-running
// multi-tenant scheduling service: an HTTP/JSON daemon (cmd/eagleeyed)
// hosting many concurrent scenario *sessions*, each a validated
// eagleeye.Session advanced by run/step requests on a bounded worker
// pool.
//
// The serving stack is deliberately small and explicit:
//
//   - a bounded session table (create/query/delete) -- the tenant state;
//   - a bounded work queue feeding a fixed worker pool -- requests past
//     the queue bound are rejected with 429 + Retry-After instead of
//     piling up latency (admission control, not load shedding after the
//     fact);
//   - per-request deadlines -- a handler gives up with 504 while the run
//     itself completes in the background and lands on the session;
//   - graceful drain -- Shutdown stops admitting work, waits for
//     in-flight runs, then stops the workers, so SIGTERM never truncates
//     a paying tenant's run.
//
// Solver-state reuse across requests comes from the layers below: every
// run draws its sched/cluster SolverState and mip workspaces from the
// pools PR 3/5 introduced, so a busy server converges to a steady state
// with no per-request solver allocation -- the same warm arenas cycle
// from request to request.
package server

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"eagleeye"
	"eagleeye/internal/obs"
)

// Config tunes one Server. The zero value serves with the defaults noted
// on each field.
type Config struct {
	// MaxSessions bounds the session table; creates beyond it are
	// rejected 429. Default 256.
	MaxSessions int
	// QueueDepth bounds the pending-run queue; run/step requests beyond
	// it are rejected 429 with Retry-After. Default 64.
	QueueDepth int
	// Workers is the number of goroutines executing runs. Default 2.
	Workers int
	// SimWorkers is passed to each run as eagleeye.Config.Workers when
	// the scenario does not set its own; the default 1 keeps one run on
	// one core so concurrent sessions scale by session count.
	SimWorkers int
	// RequestTimeout caps how long a run/step handler waits before
	// answering 504 (the run continues and lands on the session).
	// Streamed-trace runs are exempt: they report progress as they go.
	// Default 60s.
	RequestTimeout time.Duration
	// Metrics, when non-nil, receives the server series (sessions,
	// queue depth, admission rejects, request latency) alongside any
	// simulator series the runs emit.
	Metrics *obs.Registry
	// CheckpointDir, when set, makes sessions durable across daemon
	// restarts: Shutdown spools every idle session to <dir>/<id>.ckpt
	// after the drain, and LoadSpool (called by the daemon before it
	// serves) resumes them under their original IDs.
	CheckpointDir string
	// Log receives one structured line per API request (route, method,
	// path, session, request ID, status, duration) and per completed
	// run. Nil discards: the server never writes unstructured output.
	Log *slog.Logger
	// Flight sizes the per-session flight recorders; the zero value
	// takes the obs defaults (128-frame ring, top 16, 64 pinned).
	Flight obs.FlightConfig
	// DisableFlight turns per-session flight recording off entirely
	// (sessions then answer 404 on their /flight endpoint).
	DisableFlight bool
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	return c
}

// Server is the multi-tenant scheduling service. Create with New, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg Config
	met *metrics
	log *slog.Logger

	mu       sync.Mutex
	sessions map[string]*entry
	nextID   int
	draining bool
	closed   bool

	queue chan *job
	// workers tracks the pool goroutines; inflight tracks queued and
	// running jobs so Shutdown can wait for work, not just workers.
	workers  sync.WaitGroup
	inflight sync.WaitGroup
}

// entry is one tenant session in the table.
type entry struct {
	id      string
	created time.Time
	sess    *eagleeye.Session
	// flight is the session's span recorder (nil with DisableFlight).
	// Its own mutex serializes run-side offers and dump-side snapshots;
	// like sess it lives until delete.
	flight *obs.FlightRecorder

	mu         sync.Mutex
	busy       bool // a run/step is queued or executing
	deleted    bool
	runs       int
	failures   int
	lastErr    string
	lastResult *eagleeye.Result
}

// job is one queued run/step.
type job struct {
	e     *entry
	hours float64
	// reqID is the admitting request's X-Request-ID: stamped onto every
	// frame the run records and onto the completion log line, so a 504'd
	// run that lands later is still attributable to its request.
	reqID string
	trace io.Writer
	// closeTrace, when non-nil, is called after the run so a streaming
	// pipe sees EOF exactly when the trace is complete.
	closeTrace func()
	// done is buffered: the worker never blocks on an abandoned handler
	// (deadline exceeded, client gone).
	done chan jobResult
}

type jobResult struct {
	res *eagleeye.Result
	err error
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: make(map[string]*entry),
		queue:    make(chan *job, cfg.QueueDepth),
		log:      cfg.Log,
	}
	if s.log == nil {
		s.log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	if cfg.Metrics != nil {
		s.met = newMetrics(cfg.Metrics)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		if s.met != nil {
			s.met.queueDepth.Add(-1)
		}
		s.runJob(j)
		s.inflight.Done()
	}
}

// runJob advances the job's session and records the outcome on the
// entry. The session itself is single-goroutine; the busy flag set at
// admission time guarantees this worker is its only driver.
func (s *Server) runJob(j *job) {
	start := time.Now()
	if j.e.flight != nil {
		// Frames this run offers carry the admitting request's ID; a
		// PinRequest fired mid-run (deadline 504) tags them as it lands.
		j.e.flight.SetRequest(j.reqID)
	}
	res, err := j.e.sess.Step(eagleeye.StepOptions{
		Hours: j.hours,
		Trace: j.trace,
		// The shared registry: simulator series land next to the server's
		// own on the same /metrics scrape.
		Metrics: s.cfg.Metrics,
		Flight:  j.e.flight,
	})
	if j.e.flight != nil {
		j.e.flight.ClearRequest()
	}
	if j.closeTrace != nil {
		j.closeTrace()
	}
	j.e.mu.Lock()
	j.e.busy = false
	j.e.runs++
	if err != nil {
		j.e.failures++
		j.e.lastErr = err.Error()
	} else {
		j.e.lastErr = ""
		j.e.lastResult = res
	}
	if j.e.deleted {
		// The tenant deleted the session while this run was in flight;
		// release its pooled solver state now that the run is done.
		j.e.sess.Close()
	}
	j.e.mu.Unlock()
	if s.met != nil {
		s.met.runs.Inc()
		if err != nil {
			s.met.runErrors.Inc()
		}
		s.met.runSeconds.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		s.log.Error("run failed", "session", j.e.id, "request_id", j.reqID,
			"hours", j.hours, "dur_ms", time.Since(start).Milliseconds(), "error", err.Error())
	} else {
		s.log.Info("run complete", "session", j.e.id, "request_id", j.reqID,
			"hours", j.hours, "dur_ms", time.Since(start).Milliseconds())
	}
	j.done <- jobResult{res: res, err: err}
}

// admitError classifies an admission rejection.
type admitError struct {
	status int    // HTTP status to answer
	reason string // metrics label: sessions | queue | draining | busy
	msg    string
}

func (e *admitError) Error() string { return e.msg }

// createSession validates the scenario and claims a table slot.
func (s *Server) createSession(sc ScenarioConfig) (*entry, *admitError) {
	cfg := sc.toConfig()
	if cfg.Workers == 0 {
		cfg.Workers = s.cfg.SimWorkers
	}
	sess, err := eagleeye.NewSession(cfg)
	if err != nil {
		return nil, &admitError{status: 400, reason: "invalid", msg: err.Error()}
	}
	return s.insertSession(sess, "")
}

// insertSession claims a table slot for a validated session. An empty id
// assigns the next "s<N>"; a caller-provided id (spool resume) is kept
// and the counter advanced past it so later creates never collide.
func (s *Server) insertSession(sess *eagleeye.Session, id string) (*entry, *admitError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &admitError{status: 503, reason: "draining", msg: "server is draining"}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, &admitError{status: 429, reason: "sessions",
			msg: fmt.Sprintf("session table full (%d)", s.cfg.MaxSessions)}
	}
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("s%d", s.nextID)
	} else {
		if _, dup := s.sessions[id]; dup {
			return nil, &admitError{status: 409, reason: "busy",
				msg: fmt.Sprintf("session %s already exists", id)}
		}
		if n := sessionNum(id); n > s.nextID {
			s.nextID = n
		}
	}
	e := &entry{
		id:      id,
		created: time.Now(),
		sess:    sess,
	}
	if !s.cfg.DisableFlight {
		e.flight = obs.NewFlightRecorder(s.cfg.Flight)
		e.flight.SetSession(id)
	}
	s.sessions[e.id] = e
	if s.met != nil {
		s.met.sessionsCreated.Inc()
		s.met.sessionsActive.Set(float64(len(s.sessions)))
	}
	return e, nil
}

// lookup returns the live session with the given id.
func (s *Server) lookup(id string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// deleteSession removes id from the table. A running job keeps its
// private reference and finishes into the orphaned entry.
func (s *Server) deleteSession(id string) bool {
	s.mu.Lock()
	e, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	n := len(s.sessions)
	s.mu.Unlock()
	if !ok {
		return false
	}
	e.mu.Lock()
	e.deleted = true
	if !e.busy {
		// No run in flight that could still need it: release the session's
		// pooled solver state now. (A busy session is closed by its worker
		// when the run lands; see runJob.)
		e.sess.Close()
	}
	e.mu.Unlock()
	if s.met != nil {
		s.met.sessionsDeleted.Inc()
		s.met.sessionsActive.Set(float64(n))
	}
	return true
}

// enqueue admits one run/step for e. It claims the session's busy flag
// and a queue slot, or reports why not.
func (s *Server) enqueue(e *entry, hours float64, reqID string, trace io.Writer, closeTrace func()) (*job, *admitError) {
	e.mu.Lock()
	if e.deleted {
		e.mu.Unlock()
		return nil, &admitError{status: 404, reason: "deleted", msg: "session deleted"}
	}
	if e.busy {
		e.mu.Unlock()
		return nil, &admitError{status: 409, reason: "busy", msg: "session already has a run in flight"}
	}
	// Safe to read here: busy is false and we hold e.mu, so no worker is
	// stepping this session.
	if e.sess.Done() {
		e.mu.Unlock()
		return nil, &admitError{status: 409, reason: "busy",
			msg: "session already simulated its full duration (continuous sessions do not restart)"}
	}
	e.busy = true
	e.mu.Unlock()

	release := func() {
		e.mu.Lock()
		e.busy = false
		e.mu.Unlock()
	}

	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		release()
		return nil, &admitError{status: 503, reason: "draining", msg: "server is draining"}
	}
	j := &job{e: e, hours: hours, reqID: reqID, trace: trace, closeTrace: closeTrace, done: make(chan jobResult, 1)}
	// Count the job before the send: a worker can receive it, run it and
	// call inflight.Done (and decrement the gauge) before this goroutine
	// runs again, so counting after the send could take the WaitGroup
	// negative. A refused send undoes both.
	s.inflight.Add(1)
	if s.met != nil {
		s.met.queueDepth.Add(1)
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
		return j, nil
	default:
		s.inflight.Done()
		if s.met != nil {
			s.met.queueDepth.Add(-1)
		}
		s.mu.Unlock()
		release()
		return nil, &admitError{status: 429, reason: "queue",
			msg: fmt.Sprintf("work queue full (%d)", s.cfg.QueueDepth)}
	}
}

// checkpointSession serializes e's session to w with the same
// exclusivity a run gets: the busy flag is claimed for the duration, so
// a checkpoint never observes a session mid-step.
func (s *Server) checkpointSession(e *entry, w io.Writer) *admitError {
	e.mu.Lock()
	if e.deleted {
		e.mu.Unlock()
		return &admitError{status: 404, reason: "deleted", msg: "session deleted"}
	}
	if e.busy {
		e.mu.Unlock()
		return &admitError{status: 409, reason: "busy", msg: "session already has a run in flight"}
	}
	e.busy = true
	e.mu.Unlock()

	err := e.sess.Checkpoint(w)

	e.mu.Lock()
	e.busy = false
	if e.deleted {
		e.sess.Close()
	}
	e.mu.Unlock()
	if err != nil {
		return &admitError{status: 500, reason: "", msg: err.Error()}
	}
	if s.met != nil {
		s.met.checkpointsTaken.Inc()
	}
	return nil
}

// spoolSessions writes every idle session to CheckpointDir as
// <id>.ckpt (temp-file + rename, so a crash mid-write never leaves a
// truncated spool entry). Sessions still busy -- only possible when the
// drain deadline passed with work in flight -- are skipped. Called from
// Shutdown after the worker pool has stopped.
func (s *Server) spoolSessions() (int, error) {
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return 0, fmt.Errorf("server: checkpoint dir: %w", err)
	}
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	spooled := 0
	var firstErr error
	for _, e := range entries {
		e.mu.Lock()
		busy := e.busy
		e.mu.Unlock()
		if busy {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: session %s still running at spool time; not spooled", e.id)
			}
			continue
		}
		if err := writeCheckpointFile(filepath.Join(s.cfg.CheckpointDir, e.id+".ckpt"), e.sess); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		spooled++
		if s.met != nil {
			s.met.checkpointsSpooled.Inc()
		}
	}
	return spooled, firstErr
}

func writeCheckpointFile(path string, sess *eagleeye.Session) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := sess.Checkpoint(bw); err == nil {
		err = bw.Flush()
	} else {
		_ = bw.Flush()
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadSpool resumes every session a previous process spooled into
// CheckpointDir, preserving session IDs, and removes the spool files it
// consumed (a file that fails to restore is left in place for forensics).
// Call it before serving; it returns how many sessions were resumed.
func (s *Server) LoadSpool() (int, error) {
	if s.cfg.CheckpointDir == "" {
		return 0, nil
	}
	des, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	resumed := 0
	var firstErr error
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		path := filepath.Join(s.cfg.CheckpointDir, name)
		f, err := os.Open(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sess, err := eagleeye.RestoreSession(bufio.NewReader(f))
		_ = f.Close()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: spool %s: %w", name, err)
			}
			continue
		}
		if _, aerr := s.insertSession(sess, strings.TrimSuffix(name, ".ckpt")); aerr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: spool %s: %s", name, aerr.msg)
			}
			continue
		}
		_ = os.Remove(path)
		resumed++
		if s.met != nil {
			s.met.checkpointsResumed.Inc()
		}
	}
	return resumed, firstErr
}

// Shutdown drains the server: stop admitting sessions and runs, wait for
// queued and executing jobs (until the deadline), then stop the worker
// pool; with CheckpointDir set, idle sessions are then spooled to disk
// for the next process to resume. It is safe to call once; the handler
// keeps answering queries and deletes during the drain so orchestrators
// can observe it.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-time.After(timeout):
		err = fmt.Errorf("server: drain deadline (%s) passed with work in flight", timeout)
	}

	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.workers.Wait()
	if s.cfg.CheckpointDir != "" {
		if _, serr := s.spoolSessions(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ---- metrics ----

// metrics is the server's pre-resolved series set on the shared registry.
type metrics struct {
	sessionsActive  *obs.Gauge
	sessionsCreated *obs.Counter
	sessionsDeleted *obs.Counter
	queueDepth      *obs.Gauge
	runs            *obs.Counter
	runErrors       *obs.Counter
	runSeconds      *obs.Histogram
	rejects         map[string]*obs.Counter
	requests        *requestMetrics

	checkpointsTaken   *obs.Counter
	checkpointsSpooled *obs.Counter
	checkpointsResumed *obs.Counter
}

// rejectReasons enumerates the admission-reject label values so the
// series exist (at zero) from the first scrape.
var rejectReasons = []string{"sessions", "queue", "draining", "busy"}

func newMetrics(r *obs.Registry) *metrics {
	m := &metrics{
		sessionsActive:  r.Gauge("eagleeyed_sessions_active", "Live sessions in the table."),
		sessionsCreated: r.Counter("eagleeyed_sessions_created_total", "Sessions ever created."),
		sessionsDeleted: r.Counter("eagleeyed_sessions_deleted_total", "Sessions deleted by tenants."),
		queueDepth:      r.Gauge("eagleeyed_queue_depth", "Run/step jobs waiting in the admission queue."),
		runs:            r.Counter("eagleeyed_runs_total", "Scenario runs/steps executed (including failures)."),
		runErrors:       r.Counter("eagleeyed_run_errors_total", "Scenario runs/steps that returned an error."),
		runSeconds: r.Histogram("eagleeyed_run_seconds",
			"Distribution of scenario run/step execution time, in seconds.", obs.DefTimeBuckets),
		rejects:  make(map[string]*obs.Counter, len(rejectReasons)),
		requests: newRequestMetrics(r),
		checkpointsTaken: r.Counter("eagleeyed_checkpoints_total",
			"Session checkpoints served over the API."),
		checkpointsSpooled: r.Counter("eagleeyed_checkpoints_spooled_total",
			"Sessions spooled to the checkpoint dir at shutdown."),
		checkpointsResumed: r.Counter("eagleeyed_checkpoints_resumed_total",
			"Sessions resumed from the checkpoint spool at startup."),
	}
	for _, reason := range rejectReasons {
		m.rejects[reason] = r.Counter("eagleeyed_admission_rejects_total",
			"Requests rejected by admission control, by reason.",
			obs.Label{Key: "reason", Value: reason})
	}
	return m
}

func (m *metrics) reject(reason string) {
	if m == nil {
		return
	}
	if c, ok := m.rejects[reason]; ok {
		c.Inc()
	}
}
