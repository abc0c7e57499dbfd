package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"eagleeye"
	"eagleeye/internal/obs"
)

// maxBodyBytes bounds request bodies; custom-target worlds are the only
// large payload and 16 MB holds ~10^5 targets.
const maxBodyBytes = 16 << 20

// Handler returns the daemon's HTTP surface: the /v1 session API plus,
// when metrics are configured, the observability endpoints the CLI
// already serves (/metrics, /summary, /debug/vars, /debug/pprof) on the
// same port -- one scrape target per daemon.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.instrument("create", s.handleCreate))
	mux.HandleFunc("GET /v1/sessions", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("get", s.handleGet))
	mux.HandleFunc("POST /v1/sessions/{id}/run", s.instrument("run", s.handleRun))
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.instrument("step", s.handleStep))
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	mux.HandleFunc("POST /v1/sessions/restore", s.instrument("restore", s.handleRestore))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("GET /v1/sessions/{id}/flight", s.instrument("flight", s.handleFlight))
	mux.HandleFunc("GET /debug/flight", s.instrument("flight-all", s.handleFlightAll))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.Metrics != nil {
		mux.Handle("GET /metrics", obs.Handler(s.cfg.Metrics))
		mux.HandleFunc("GET /summary", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = s.cfg.Metrics.WriteSummary(w)
		})
		mux.Handle("GET /debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var sc ScenarioConfig
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad scenario body: " + err.Error()})
		return
	}
	e, aerr := s.createSession(sc)
	if aerr != nil {
		s.rejectResponse(w, aerr)
		return
	}
	writeJSON(w, http.StatusCreated, e.info(false))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	draining := s.draining
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return sessionNum(entries[i].id) < sessionNum(entries[j].id) })
	resp := ListResponse{Sessions: make([]SessionInfo, 0, len(entries)), Draining: draining}
	for _, e := range entries {
		resp.Sessions = append(resp.Sessions, e.info(false))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no such session"})
		return
	}
	writeJSON(w, http.StatusOK, e.info(true))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.deleteSession(r.PathValue("id")) {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no such session"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no such session"})
		return
	}
	if r.URL.Query().Get("trace") == "ndjson" {
		s.runStreaming(w, r, e)
		return
	}
	s.runBlocking(w, r, e, 0)
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no such session"})
		return
	}
	var req StepRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad step body: " + err.Error()})
		return
	}
	if req.Hours < 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "hours must be non-negative"})
		return
	}
	if req.Hours > eagleeye.MaxDurationHours {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("hours must be at most %d", eagleeye.MaxDurationHours)})
		return
	}
	s.runBlocking(w, r, e, req.Hours)
}

// maxCheckpointBody bounds restore uploads; a checkpoint embeds the
// scenario (possibly a large custom world) plus the simulator snapshot.
const maxCheckpointBody = 256 << 20

// handleCheckpoint serializes the session as one binary download. The
// checkpoint is staged in memory first so a serialization failure turns
// into a clean error response instead of a truncated 200.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no such session"})
		return
	}
	var buf bytes.Buffer
	if aerr := s.checkpointSession(e, &buf); aerr != nil {
		s.rejectResponse(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleRestore creates a session from an uploaded checkpoint, giving it
// a fresh ID (spool resume at startup is what preserves IDs; an uploaded
// duplicate must not collide with a live session).
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	sess, err := eagleeye.RestoreSession(io.LimitReader(r.Body, maxCheckpointBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad checkpoint: " + err.Error()})
		return
	}
	e, aerr := s.insertSession(sess, "")
	if aerr != nil {
		s.rejectResponse(w, aerr)
		return
	}
	writeJSON(w, http.StatusCreated, e.info(false))
}

// handleFlight dumps one session's flight recorder: the recent-frame
// ring, the slowest frames, and the pinned anomalies, as schema-versioned
// JSON.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no such session"})
		return
	}
	if e.flight == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "flight recording disabled"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = e.flight.WriteJSON(w)
}

// handleFlightAll aggregates every live session's flight dump.
func (s *Server) handleFlightAll(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return sessionNum(entries[i].id) < sessionNum(entries[j].id) })
	resp := FlightAllResponse{Schema: obs.FlightSchema, Sessions: make([]obs.FlightDump, 0, len(entries))}
	for _, e := range entries {
		if e.flight != nil {
			resp.Sessions = append(resp.Sessions, e.flight.Snapshot())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// runBlocking admits one run/step and waits for it under the request
// deadline. A deadline miss answers 504 but does not cancel the run: it
// completes on the worker and lands on the session for later query.
func (s *Server) runBlocking(w http.ResponseWriter, r *http.Request, e *entry, hours float64) {
	j, aerr := s.enqueue(e, hours, requestID(r), nil, nil)
	if aerr != nil {
		s.rejectResponse(w, aerr)
		return
	}
	deadline := time.NewTimer(s.cfg.RequestTimeout)
	defer deadline.Stop()
	select {
	case rr := <-j.done:
		if rr.err != nil {
			writeJSON(w, http.StatusInternalServerError, RunResponse{ID: e.id, Error: rr.err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, RunResponse{ID: e.id, Result: rr.res})
	case <-deadline.C:
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error: fmt.Sprintf("deadline (%s) exceeded; the run continues -- query the session for its result", s.cfg.RequestTimeout)})
	case <-r.Context().Done():
		// Client gone; the worker finishes into the session regardless.
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "client cancelled"})
	}
}

// runStreaming admits a full run and streams its frame trace as NDJSON,
// terminated by one RunResponse line. Streaming runs are exempt from the
// request deadline -- they demonstrate liveness by emitting.
func (s *Server) runStreaming(w http.ResponseWriter, r *http.Request, e *entry) {
	pr, pw := io.Pipe()
	j, aerr := s.enqueue(e, 0, requestID(r), pw, func() { _ = pw.Close() })
	if aerr != nil {
		_ = pr.Close()
		s.rejectResponse(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Drain the pipe to EOF even if the client went away: the simulator's
	// trace writes must never block on a dead connection.
	buf := make([]byte, 32<<10)
	var werr error
	for {
		n, rerr := pr.Read(buf)
		if n > 0 && werr == nil {
			if _, werr = w.Write(buf[:n]); werr == nil && flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			break
		}
	}
	rr := <-j.done
	final := RunResponse{ID: e.id, Result: rr.res}
	if rr.err != nil {
		final = RunResponse{ID: e.id, Error: rr.err.Error()}
	}
	if werr == nil {
		enc := json.NewEncoder(w)
		_ = enc.Encode(final)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// rejectResponse answers an admission error, with Retry-After on 429 so
// well-behaved clients back off instead of hammering.
func (s *Server) rejectResponse(w http.ResponseWriter, aerr *admitError) {
	if s.met != nil && (aerr.status == http.StatusTooManyRequests || aerr.reason == "draining" || aerr.reason == "busy") {
		s.met.reject(aerr.reason)
	}
	if aerr.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, aerr.status, ErrorResponse{Error: aerr.msg})
}

// retryAfterSeconds derives the 429 back-off hint from live load instead
// of the old hardcoded 1s (which made every rejected client retry into
// the same full queue one second later): the median run time observed so
// far, scaled by how many runs stand between a retry and a free worker
// (the queue plus the run in flight), clamped to [1, 60]. With no
// metrics registry or no completed runs yet there is nothing to derive
// from and the floor of 1 stands.
func (s *Server) retryAfterSeconds() int {
	if s.met == nil {
		return 1
	}
	snap := s.met.runSeconds.Snapshot()
	if snap.Count == 0 {
		return 1
	}
	ahead := float64(len(s.queue))/float64(s.cfg.Workers) + 1
	sec := int(math.Ceil(histP50(snap) * ahead))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// histP50 reads the median out of a histogram snapshot by nearest rank,
// reporting the matching bucket's upper bound (a conservative estimate:
// real latency is at most that). Observations in the +Inf bucket have no
// bound, so the mean stands in.
func histP50(snap obs.HistogramSnapshot) float64 {
	rank := (snap.Count + 1) / 2
	var cum int64
	for i, c := range snap.Counts {
		cum += c
		if cum >= rank {
			if i < len(snap.Bounds) {
				return snap.Bounds[i]
			}
			break
		}
	}
	return snap.Sum / float64(snap.Count)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func sessionNum(id string) int {
	n, _ := strconv.Atoi(id[1:])
	return n
}

// ---- request instrumentation ----

// requestMetrics resolves per-route/per-code series lazily through the
// registry; request handling is not the frame loop, so the registry's
// get-or-create lock is fine here.
type requestMetrics struct {
	reg *obs.Registry
}

func newRequestMetrics(r *obs.Registry) *requestMetrics { return &requestMetrics{reg: r} }

func (rm *requestMetrics) observe(route string, code int, d time.Duration) {
	rm.reg.Counter("eagleeyed_requests_total", "API requests by route and status code.",
		obs.Label{Key: "route", Value: route},
		obs.Label{Key: "code", Value: strconv.Itoa(code)}).Inc()
	rm.reg.Histogram("eagleeyed_request_seconds",
		"Distribution of request handling time, in seconds.", obs.DefTimeBuckets,
		obs.Label{Key: "route", Value: route}).Observe(d.Seconds())
}

// statusRecorder captures the response code for instrumentation while
// passing Flush through for streamed responses.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ctxKey keys the request-ID context value.
type ctxKey int

const reqIDKey ctxKey = 0

// requestID returns the ID instrument assigned to this request.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey).(string)
	return id
}

// newRequestID generates a 16-hex-char random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; serve anyway.
		return "r-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID echoes a client-supplied X-Request-ID only when it is
// short and unambiguous in logs and label values.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// instrument is the request middleware: it assigns (or echoes) the
// X-Request-ID, emits one structured log line per request, feeds the
// route/status metrics, and pins a flight-recorder anomaly on 5xx
// responses so "why did this request fail" is answerable from the flight
// dump an hour later.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if reqID == "" {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey, reqID))
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(sr, r)
		d := time.Since(start)
		if s.met != nil {
			s.met.requests.observe(route, sr.code, d)
		}
		sid := r.PathValue("id")
		if sr.code >= 500 && sr.code != http.StatusServiceUnavailable {
			// 503 is the drain signal, not a per-session fault; everything
			// else 5xx is worth a pinned flight record on the session.
			if e := s.lookup(sid); e != nil && e.flight != nil {
				anom, note := obs.AnomServerError, "server error "+strconv.Itoa(sr.code)
				if sr.code == http.StatusGatewayTimeout {
					anom, note = obs.AnomRequestDeadline, "request deadline (504)"
				}
				e.flight.PinRequest(reqID, anom, note)
			}
		}
		level := slog.LevelInfo
		switch {
		case sr.code >= 500:
			level = slog.LevelError
		case sr.code >= 400:
			level = slog.LevelWarn
		}
		s.log.Log(r.Context(), level, "request",
			"route", route, "method", r.Method, "path", r.URL.Path,
			"session", sid, "request_id", reqID,
			"status", sr.code, "dur_ms", d.Milliseconds())
	}
}
