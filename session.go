package eagleeye

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"eagleeye/internal/sim"
)

// Session is a long-lived scenario handle: validate a Config once, then
// advance the scenario in steps (or full runs) many times. It is the
// facade the multi-tenant server (cmd/eagleeyed) builds on, and is equally
// usable directly for windowed evaluations.
//
// Sessions come in two modes:
//
//   - Windowed (the default): each step simulates one window of the
//     scenario as an independent deterministic run. Step 0 uses the
//     configured seed exactly (so a session's first full-duration step is
//     byte-identical to Run on the same Config), and later steps derive
//     their seed from the step index, giving a reproducible sequence of
//     scenario windows.
//   - Continuous (Config.Continuous): steps advance ONE uninterrupted
//     simulation timeline -- orbital steppers, solver warm state, fault
//     events and statistics all carry across step boundaries, and each
//     step's Result is the cumulative run so far. A continuous session
//     that has stepped to its configured duration is complete; stepping it
//     further returns an error. Continuous sessions can be serialized
//     mid-run with Checkpoint and resumed with RestoreSession.
//
// Step, Run, Checkpoint and Close must not run concurrently; callers
// that share a session across goroutines (the server's session table)
// serialize them. The progress getters -- Steps, Aggregate, Done and
// SimulatedHours -- are safe to call at any time, including while a step
// runs: they read a view the step publishes once its run has returned.
type Session struct {
	cfg    Config
	runner *sim.Runner      // continuous mode; nil until the first step
	met    *MetricsRegistry // registry bound at runner materialization
	flight *FlightRecorder  // recorder bound at runner materialization
	closed bool

	// pending holds a restored-but-not-yet-materialized simulator
	// snapshot: RestoreSession validates the header eagerly but defers
	// the (replaying) sim restore to the first Step, which is where the
	// trace writer and metrics registry become known.
	pending []byte

	// mu guards the published progress view. Only the stepping goroutine
	// writes it, after a run returns; mu is never held across Run or
	// Advance, so a getter never waits on a simulation.
	mu       sync.Mutex
	steps    int
	agg      SessionAggregate
	done     bool
	simHours float64 // continuous timeline position
}

// SessionAggregate accumulates deterministic counters across a session's
// steps. Timing-derived quantities (scheduler wall clock, deadline
// misses) are deliberately absent: they vary run to run and belong in the
// per-step Result or the metrics registry. In continuous mode the
// counters are the cumulative totals of the single timeline; in windowed
// mode they are sums over the independent windows.
type SessionAggregate struct {
	Steps           int
	SimulatedHours  float64
	Frames          int
	Detections      int
	Captures        int
	HighResCaptured int
	CrosslinkKB     float64
}

// NewSession validates cfg eagerly -- a server rejects a bad scenario at
// creation time, not on its first run -- and returns a handle with the
// paper defaults filled in.
func NewSession(cfg Config) (*Session, error) {
	if _, err := toSimConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.DurationHours == 0 {
		cfg.DurationHours = 24
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Session{cfg: cfg}, nil
}

// Config returns the session's validated configuration.
func (s *Session) Config() Config { return s.cfg }

// Steps returns how many steps have completed.
func (s *Session) Steps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// Aggregate returns the counters accumulated over all completed steps.
func (s *Session) Aggregate() SessionAggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg
}

// Done reports whether a continuous session has reached its configured
// duration. Windowed sessions never complete.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// SimulatedHours returns a continuous session's position on its timeline
// (0 for windowed sessions, whose aggregate tracks window sums instead).
func (s *Session) SimulatedHours() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simHours
}

// Close releases the pooled solver state held by a continuous session's
// runner. Idempotent; the session cannot step afterwards. Windowed
// sessions hold no such state, but closing them still retires the handle.
func (s *Session) Close() {
	if s.runner != nil {
		s.runner.Close()
		s.runner = nil
	}
	s.closed = true
}

// StepOptions tunes one Session.Step call.
type StepOptions struct {
	// Hours is the simulated span of this step; 0 means the session's full
	// configured duration (in continuous mode: the remainder of it).
	// Negative or non-finite values are rejected, and so in windowed mode
	// is a span above MaxDurationHours.
	Hours float64
	// Trace, when non-nil, receives this step's frame trace (overriding
	// any writer in the session Config). In continuous mode the override
	// stays in effect for subsequent steps until replaced.
	Trace io.Writer
	// Metrics, when non-nil, receives this step's run metrics (overriding
	// any registry in the session Config). A continuous session binds its
	// registry on the first step; passing the same registry again later
	// is a no-op and passing a different one is rejected.
	Metrics *MetricsRegistry
	// Flight, when non-nil, records this step's frames into the flight
	// recorder (overriding any recorder in the session Config). Binding
	// rules match Metrics: a continuous session binds its recorder on
	// the first step and rejects a different one later. The session
	// stamps its step index onto the recorder before each step so dumped
	// frames correlate back to the request that ran them.
	Flight *FlightRecorder
}

// Step simulates the session's next scenario window and folds its
// deterministic counters into the aggregate. A failed step consumes no
// step index, so a retry reproduces the same window.
func (s *Session) Step(opt StepOptions) (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("eagleeye: session is closed")
	}
	// An unset Hours (zero) means "full duration"; anything else must be a
	// positive finite span. The old behavior -- treating negative or NaN
	// the same as unset -- turned caller bugs into silent full-length runs.
	if math.IsNaN(opt.Hours) || math.IsInf(opt.Hours, 0) || opt.Hours < 0 {
		return nil, fmt.Errorf("eagleeye: step hours must be a non-negative finite number, got %v", opt.Hours)
	}
	if s.cfg.Continuous {
		return s.stepContinuous(opt)
	}
	cfg := s.cfg
	if opt.Hours > 0 {
		cfg.DurationHours = opt.Hours
	}
	if opt.Trace != nil {
		cfg.Trace = opt.Trace
	}
	if opt.Metrics != nil {
		cfg.Metrics = opt.Metrics
	}
	if opt.Flight != nil {
		cfg.Flight = opt.Flight
	}
	if cfg.Flight != nil {
		cfg.Flight.SetStep(s.steps)
	}
	cfg.Seed = stepSeed(s.cfg.Seed, s.steps)
	r, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.steps++
	s.agg.Steps++
	s.agg.SimulatedHours += cfg.DurationHours
	s.agg.Frames += r.Frames
	s.agg.Detections += r.Detections
	s.agg.Captures += r.Captures
	s.agg.HighResCaptured += r.HighResCaptured
	s.agg.CrosslinkKB += r.CrosslinkKB
	return r, nil
}

// stepContinuous advances the single timeline by opt.Hours (or to the
// configured duration) and returns the cumulative Result.
func (s *Session) stepContinuous(opt StepOptions) (*Result, error) {
	if s.runner == nil {
		simCfg, err := toSimConfig(s.cfg)
		if err != nil {
			return nil, err
		}
		if opt.Metrics != nil {
			simCfg.Metrics = opt.Metrics
		}
		if opt.Flight != nil {
			simCfg.Flight = opt.Flight
		}
		var r *sim.Runner
		if s.pending != nil {
			// A restored session: rebuild the runner from the checkpoint's
			// snapshot now that this step's attachments are known.
			r, err = sim.RestoreRunner(simCfg, bytes.NewReader(s.pending))
			if err == nil {
				s.pending = nil
			}
		} else {
			r, err = sim.NewRunner(simCfg)
		}
		if err != nil {
			return nil, err
		}
		s.runner = r
		s.met = simCfg.Metrics
		s.flight = simCfg.Flight
	} else if opt.Metrics != nil && opt.Metrics != s.met {
		return nil, fmt.Errorf("eagleeye: a continuous session binds its metrics registry on the first step")
	} else if opt.Flight != nil && opt.Flight != s.flight {
		return nil, fmt.Errorf("eagleeye: a continuous session binds its flight recorder on the first step")
	}
	if s.flight != nil {
		s.flight.SetStep(s.steps)
	}
	if opt.Trace != nil {
		s.runner.SetTrace(opt.Trace)
	}
	if s.runner.Done() {
		return nil, fmt.Errorf("eagleeye: session already simulated its full %v h duration", s.cfg.DurationHours)
	}
	target := s.runner.Duration()
	if opt.Hours > 0 {
		target = s.runner.Now() + opt.Hours*3600
	}
	err := s.runner.Advance(target)
	var simRes *sim.Result
	if err == nil {
		simRes, err = s.runner.Result()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = s.runner.Done()
	s.simHours = s.runner.Now() / 3600
	if err != nil {
		return nil, err
	}
	res := resultFromSim(simRes, s.cfg.Satellites)
	if res.Satellites == 0 {
		res.Satellites = 2 // the facade default
	}
	s.steps++
	s.agg = SessionAggregate{
		Steps:           s.steps,
		SimulatedHours:  s.simHours,
		Frames:          res.Frames,
		Detections:      res.Detections,
		Captures:        res.Captures,
		HighResCaptured: res.HighResCaptured,
		CrosslinkKB:     res.CrosslinkKB,
	}
	return res, nil
}

// Run advances the session by one full-duration step. On a fresh session
// the result is byte-identical to Run(cfg) on the same Config.
func (s *Session) Run() (*Result, error) { return s.Step(StepOptions{}) }

// stepSeed derives a deterministic per-step seed. Step 0 is the base seed
// itself, preserving result identity between a session's first step and a
// direct Run; later windows decorrelate via the same splitmix-style hash
// the simulator uses per frame.
func stepSeed(base int64, step int) int64 {
	if step == 0 {
		return base
	}
	h := uint64(base)*0x9E3779B97F4A7C15 + uint64(step)*0x94D049BB133111EB
	h ^= h >> 31
	if h&0x7FFFFFFFFFFFFFFF == 0 {
		h = 1 // Config treats seed 0 as "default"; never collide with it
	}
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// ---- Checkpoint / restore ----

// Session checkpoints are a small framed container: an 8-byte magic, a
// JSON header (config, step count, aggregate), and -- for a continuous
// session that has started stepping -- the simulator's versioned binary
// snapshot. The JSON keeps the scenario human-inspectable (`tail -c +13 |
// head -c <len>`), while the simulator snapshot stays opaque and
// replay-verified; Trace and Metrics are runtime attachments and are
// deliberately not serialized (rebind them via StepOptions after restore).
const sessMagic = "EESESSV1"

// sessionHeader is the JSON part of a checkpoint.
type sessionHeader struct {
	Config    Config           `json:"config"`
	Steps     int              `json:"steps"`
	Aggregate SessionAggregate `json:"aggregate"`
	// NowHours is informational: the continuous position at checkpoint.
	NowHours float64 `json:"now_hours,omitempty"`
	// HasSnapshot marks a simulator snapshot following the header.
	HasSnapshot bool `json:"has_snapshot"`
}

// Checkpoint serializes the session to w so RestoreSession can resume it
// in another process. Windowed sessions serialize their cursor (step
// count and aggregate) only -- their steps are independent runs, so that
// is their entire state. Continuous sessions additionally embed the
// simulator snapshot; restore-then-step continues the timeline exactly
// where the checkpoint left it, byte-identical to never having stopped.
// A continuous session whose runner has failed refuses to checkpoint.
func (s *Session) Checkpoint(w io.Writer) error {
	if s.closed {
		return fmt.Errorf("eagleeye: session is closed")
	}
	hdr := sessionHeader{
		Config:      s.cfg,
		Steps:       s.steps,
		Aggregate:   s.agg,
		HasSnapshot: s.runner != nil || s.pending != nil,
	}
	var snap bytes.Buffer
	if s.runner != nil {
		hdr.NowHours = s.runner.Now() / 3600
		if err := s.runner.Snapshot(&snap); err != nil {
			return err
		}
	} else if s.pending != nil {
		// Restored but never stepped: the original snapshot is still the
		// exact state, so re-emit it verbatim.
		hdr.NowHours = s.simHours
		snap.Write(s.pending)
	}
	hj, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("eagleeye: checkpoint header: %w", err)
	}
	if _, err := io.WriteString(w, sessMagic); err != nil {
		return fmt.Errorf("eagleeye: checkpoint: %w", err)
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(hj)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("eagleeye: checkpoint: %w", err)
	}
	if _, err := w.Write(hj); err != nil {
		return fmt.Errorf("eagleeye: checkpoint: %w", err)
	}
	if hdr.HasSnapshot {
		var szBuf [8]byte
		binary.BigEndian.PutUint64(szBuf[:], uint64(snap.Len()))
		if _, err := w.Write(szBuf[:]); err != nil {
			return fmt.Errorf("eagleeye: checkpoint: %w", err)
		}
		if _, err := w.Write(snap.Bytes()); err != nil {
			return fmt.Errorf("eagleeye: checkpoint: %w", err)
		}
	}
	return nil
}

// maxCheckpointHeader bounds the JSON header read; a scenario with a
// large custom Targets world dominates its size.
const maxCheckpointHeader = 256 << 20

// readBounded reads exactly n bytes of src, failing like io.ReadFull on a
// short stream. The buffer grows only as bytes arrive, so a corrupt or
// hostile length field costs memory in proportion to the bytes actually
// received, not to the length it claims.
func readBounded(src io.Reader, n uint64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(src, int64(n)))
	switch {
	case err != nil:
		return nil, err
	case uint64(len(b)) == n:
		return b, nil
	case len(b) == 0:
		return nil, io.EOF
	default:
		return nil, io.ErrUnexpectedEOF
	}
}

// RestoreSession rebuilds a session from a Checkpoint stream. The
// embedded configuration is re-validated as in NewSession and the framing
// checked eagerly; a continuous session's simulator snapshot is kept
// pending and restored (including the deterministic replay that rebuilds
// ephemeris phase) on the first Step, which is where the trace writer and
// metrics registry for the resumed timeline become known. Snapshot
// corruption therefore surfaces on that first Step rather than here.
func RestoreSession(src io.Reader) (*Session, error) {
	var magic [8]byte
	if _, err := io.ReadFull(src, magic[:]); err != nil {
		return nil, fmt.Errorf("eagleeye: checkpoint: %w", err)
	}
	if string(magic[:]) != sessMagic {
		return nil, fmt.Errorf("eagleeye: not a session checkpoint (bad magic)")
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(src, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("eagleeye: checkpoint: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxCheckpointHeader {
		return nil, fmt.Errorf("eagleeye: checkpoint header of %d bytes exceeds the %d byte bound", n, maxCheckpointHeader)
	}
	hj, err := readBounded(src, uint64(n))
	if err != nil {
		return nil, fmt.Errorf("eagleeye: checkpoint: %w", err)
	}
	var hdr sessionHeader
	if err := json.Unmarshal(hj, &hdr); err != nil {
		return nil, fmt.Errorf("eagleeye: checkpoint header: %w", err)
	}
	s, err := NewSession(hdr.Config)
	if err != nil {
		return nil, err
	}
	s.steps = hdr.Steps
	s.agg = hdr.Aggregate
	if hdr.HasSnapshot {
		if !s.cfg.Continuous {
			return nil, fmt.Errorf("eagleeye: checkpoint has a simulator snapshot but is not continuous")
		}
		var szBuf [8]byte
		if _, err := io.ReadFull(src, szBuf[:]); err != nil {
			return nil, fmt.Errorf("eagleeye: checkpoint: %w", err)
		}
		sz := binary.BigEndian.Uint64(szBuf[:])
		if sz > maxCheckpointHeader {
			return nil, fmt.Errorf("eagleeye: checkpoint snapshot of %d bytes exceeds the %d byte bound", sz, maxCheckpointHeader)
		}
		snap, err := readBounded(src, sz)
		if err != nil {
			return nil, fmt.Errorf("eagleeye: checkpoint: %w", err)
		}
		s.pending = snap
		s.simHours = hdr.NowHours
		s.done = s.simHours >= s.cfg.DurationHours
	}
	return s, nil
}
