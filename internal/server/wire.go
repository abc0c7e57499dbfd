package server

import (
	"eagleeye"
	"eagleeye/internal/obs"
)

// Wire types: the JSON bodies the daemon speaks. They mirror the
// serializable subset of eagleeye.Config -- writers, registries and other
// process-local handles are the server's business, not the tenant's.

// ScenarioConfig is the request body for session creation.
type ScenarioConfig struct {
	Organization      string       `json:"organization,omitempty"`
	Satellites        int          `json:"satellites,omitempty"`
	FollowersPerGroup int          `json:"followers_per_group,omitempty"`
	Dataset           string       `json:"dataset,omitempty"`
	Targets           []TargetSpec `json:"targets,omitempty"`
	MovingTargets     bool         `json:"moving_targets,omitempty"`
	Scheduler         string       `json:"scheduler,omitempty"`
	Detector          string       `json:"detector,omitempty"`
	SlewRateDegS      float64      `json:"slew_rate_deg_s,omitempty"`
	DurationHours     float64      `json:"duration_hours,omitempty"`
	Seed              int64        `json:"seed,omitempty"`
	NoClustering      bool         `json:"no_clustering,omitempty"`
	GreedyClustering  bool         `json:"greedy_clustering,omitempty"`
	DisableWarmStart  bool         `json:"disable_warm_start,omitempty"`
	RecallOverride    float64      `json:"recall_override,omitempty"`
	OrbitPlanes       int          `json:"orbit_planes,omitempty"`
	RecaptureDedup    bool         `json:"recapture_dedup,omitempty"`
	// Workers is the per-run simulator parallelism; 0 inherits the
	// server's default (1: concurrency comes from sessions, not one run).
	Workers int `json:"workers,omitempty"`
	// Continuous makes steps advance one uninterrupted timeline instead of
	// independent reseeded windows; such sessions can be checkpointed
	// mid-run and survive a daemon restart.
	Continuous bool `json:"continuous,omitempty"`
	// Events schedules mid-run fault events on the scenario timeline.
	Events []EventSpec `json:"events,omitempty"`
}

// EventSpec is one scheduled mid-run fault event.
type EventSpec struct {
	AtHours float64 `json:"at_hours"`
	// Kind is eagleeye.FaultFollowerFail or eagleeye.FaultLeaderFail.
	Kind     string `json:"kind"`
	Group    int    `json:"group,omitempty"`
	Follower int    `json:"follower,omitempty"`
}

// TargetSpec is one custom-world target.
type TargetSpec struct {
	Lat        float64 `json:"lat"`
	Lon        float64 `json:"lon"`
	SpeedMS    float64 `json:"speed_ms,omitempty"`
	HeadingDeg float64 `json:"heading_deg,omitempty"`
	Value      float64 `json:"value,omitempty"`
}

func (sc ScenarioConfig) toConfig() eagleeye.Config {
	cfg := eagleeye.Config{
		Organization:      sc.Organization,
		Satellites:        sc.Satellites,
		FollowersPerGroup: sc.FollowersPerGroup,
		Dataset:           sc.Dataset,
		MovingTargets:     sc.MovingTargets,
		Scheduler:         sc.Scheduler,
		Detector:          sc.Detector,
		SlewRateDegS:      sc.SlewRateDegS,
		DurationHours:     sc.DurationHours,
		Seed:              sc.Seed,
		NoClustering:      sc.NoClustering,
		GreedyClustering:  sc.GreedyClustering,
		DisableWarmStart:  sc.DisableWarmStart,
		RecallOverride:    sc.RecallOverride,
		OrbitPlanes:       sc.OrbitPlanes,
		RecaptureDedup:    sc.RecaptureDedup,
		Workers:           sc.Workers,
		Continuous:        sc.Continuous,
	}
	for _, ev := range sc.Events {
		cfg.Events = append(cfg.Events, eagleeye.FaultEvent{
			AtHours: ev.AtHours, Kind: ev.Kind, Group: ev.Group, Follower: ev.Follower,
		})
	}
	for _, t := range sc.Targets {
		cfg.Targets = append(cfg.Targets, eagleeye.Target{
			Lat: t.Lat, Lon: t.Lon,
			SpeedMS: t.SpeedMS, HeadingDeg: t.HeadingDeg, Value: t.Value,
		})
	}
	return cfg
}

// StepRequest is the body for POST /v1/sessions/{id}/step.
type StepRequest struct {
	// Hours is the simulated span of this step; 0 means the session's
	// full configured duration. It must lie in [0,
	// eagleeye.MaxDurationHours].
	Hours float64 `json:"hours,omitempty"`
}

// SessionInfo is the query/list view of one session.
type SessionInfo struct {
	ID          string                    `json:"id"`
	CreatedUnix int64                     `json:"created_unix"`
	State       string                    `json:"state"` // idle | running
	Runs        int                       `json:"runs"`
	Failures    int                       `json:"failures,omitempty"`
	LastError   string                    `json:"last_error,omitempty"`
	Done        bool                      `json:"done,omitempty"`
	Aggregate   eagleeye.SessionAggregate `json:"aggregate"`
	LastResult  *eagleeye.Result          `json:"last_result,omitempty"`
}

func (e *entry) info(withResult bool) SessionInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := "idle"
	if e.busy {
		st = "running"
	}
	info := SessionInfo{
		ID:          e.id,
		CreatedUnix: e.created.Unix(),
		State:       st,
		Runs:        e.runs,
		Failures:    e.failures,
		LastError:   e.lastErr,
		Done:        e.sess.Done(),
		Aggregate:   e.sess.Aggregate(),
	}
	if withResult {
		info.LastResult = e.lastResult
	}
	return info
}

// RunResponse is the terminal payload of a run/step request (and the
// final NDJSON line of a streamed run).
type RunResponse struct {
	ID     string           `json:"id"`
	Result *eagleeye.Result `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ListResponse is the body of GET /v1/sessions.
type ListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
	Draining bool          `json:"draining,omitempty"`
}

// FlightAllResponse is the body of GET /debug/flight: every live
// session's flight dump, in session order. Schema mirrors the per-dump
// obs.FlightSchema so offline tooling can version-check the aggregate.
type FlightAllResponse struct {
	Schema   int              `json:"schema"`
	Sessions []obs.FlightDump `json:"sessions"`
}
