package main

import (
	"encoding/json"
	"fmt"
	"io"

	"eagleeye/internal/core"
)

// Unsharded reference mode (-reference): two cycles of referenceCycle
// frames, each run through the default sharded plan and through the 1x1
// plan (PerShardTargets above the frame size, the exact pre-sharding
// pipeline). It records what the shard stitch gives up in captures and
// covered targets; it is run once and its output kept in
// perfbench/reference.json, not measured per check.

type referenceFrame struct {
	Frame             int     `json:"frame"`
	Targets           int     `json:"targets"`
	Shards            int     `json:"shards"`
	ShardedCaptures   int     `json:"sharded_captures"`
	ShardedCovered    int     `json:"sharded_covered"`
	ShardedMS         float64 `json:"sharded_ms"`
	UnshardedCaptures int     `json:"unsharded_captures"`
	UnshardedCovered  int     `json:"unsharded_covered"`
	UnshardedMS       float64 `json:"unsharded_ms"`
}

type referenceReport struct {
	Seed                      int64            `json:"seed"`
	Frames                    []referenceFrame `json:"frames"`
	ShardedCoveredPerFrame    float64          `json:"sharded_covered_per_frame"`
	UnshardedCoveredPerFrame  float64          `json:"unsharded_covered_per_frame"`
	ShardedCapturesPerFrame   float64          `json:"sharded_captures_per_frame"`
	UnshardedCapturesPerFrame float64          `json:"unsharded_captures_per_frame"`
	Failed                    int              `json:"failed"`
}

func runReference(w io.Writer, seed int64) error {
	o := newOutcome()
	sharded := newFramePipeline(0, nil, nil)
	defer sharded.Close()
	unsharded := newFramePipeline(1<<30, nil, nil)
	defer unsharded.Close()
	rep := referenceReport{Seed: seed}
	var seen []bool
	for i := 0; i < 2*len(referenceCycle); i++ {
		n := referenceCycle[i%len(referenceCycle)]
		in := makeFrame(seed, i, n)
		run := func(sp *core.ShardedPipeline) (*frameRun, error) {
			return processFrame(o, sp, in, &seen)
		}
		s, err := run(sharded)
		if err != nil {
			return err
		}
		u, err := run(unsharded)
		if err != nil {
			return err
		}
		rep.Frames = append(rep.Frames, referenceFrame{
			Frame: i, Targets: n, Shards: s.stats.Shards,
			ShardedCaptures: s.captures, ShardedCovered: s.covered, ShardedMS: ms(s.wall),
			UnshardedCaptures: u.captures, UnshardedCovered: u.covered, UnshardedMS: ms(u.wall),
		})
		rep.ShardedCoveredPerFrame += float64(s.covered)
		rep.UnshardedCoveredPerFrame += float64(u.covered)
		rep.ShardedCapturesPerFrame += float64(s.captures)
		rep.UnshardedCapturesPerFrame += float64(u.captures)
	}
	k := float64(len(rep.Frames))
	rep.ShardedCoveredPerFrame /= k
	rep.UnshardedCoveredPerFrame /= k
	rep.ShardedCapturesPerFrame /= k
	rep.UnshardedCapturesPerFrame /= k
	rep.Failed = o.failed
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("reference: %d checks failed", rep.Failed)
	}
	return nil
}
