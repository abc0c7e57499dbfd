package sim

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/obs"
)

// TestLongHorizonMemoryBounded is the week-long acceptance run: 168
// simulated hours, advanced through daily windows with a mid-week leader
// failure, while the live heap stays under a fixed ceiling. The result
// state is O(1) in the horizon -- the per-image distribution is a
// fixed-bucket histogram and every other accumulator is a scalar or a
// target-indexed bitset -- so the heap high-water mark is set by the
// scenario (dataset, index, solver arenas), not by the number of frames.
// A regression back to per-frame result state (the old TargetsPerImage
// slice, or unbounded trace staging) shows up as heap growth proportional
// to simulated time and breaks the ceiling.
func TestLongHorizonMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long simulation in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates heap measurements")
	}
	const (
		horizonS = 168 * 3600
		windowS  = 24 * 3600
		// Generous versus the ~10 MiB a healthy run needs, fatal for
		// anything that accumulates per-frame state over ~87k frames.
		heapCeiling = 64 << 20
	)
	// The flight recorder rides along for the whole week: its retention is
	// bounded (ring + top-K + pinned FIFO with arena reuse), so it must
	// fit under the same ceiling, and the hour-60 fault event must still
	// be retrievable from the dump ~50k frames later.
	flight := obs.NewFlightRecorder(obs.FlightConfig{})
	cfg := Config{
		Constellation: constellation.Config{
			Kind: constellation.LeaderFollower, Satellites: 8, FollowersPerGroup: 3,
		},
		App:       smallWorld(1500, 95),
		DurationS: horizonS,
		Seed:      1,
		Events: []Event{
			// Mid-week churn: one group loses a follower, the other its
			// leader (absorbed by re-election).
			{AtS: 60 * 3600, Kind: EventFollowerFail, Group: 0, Follower: 1},
			{AtS: 84 * 3600, Kind: EventLeaderFail, Group: 1},
		},
		Flight: flight,
	}
	r := mustRunner(t, cfg)
	var ms runtime.MemStats
	for day := 1; day <= 7; day++ {
		advance(t, r, float64(day)*windowS)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > heapCeiling {
			t.Fatalf("day %d: live heap %d MiB exceeds %d MiB ceiling",
				day, ms.HeapAlloc>>20, heapCeiling>>20)
		}
	}
	if !r.Done() {
		t.Fatalf("runner not done at %v / %v", r.Now(), r.Duration())
	}
	res := result(t, r)
	if res.Frames < 50000 {
		t.Errorf("suspiciously short week: %d frames", res.Frames)
	}
	if res.EventsApplied != 2 || res.SatsFailed != 2 || res.LeaderReelections != 1 {
		t.Errorf("fault accounting: applied %d failed %d reelected %d, want 2/2/1",
			res.EventsApplied, res.SatsFailed, res.LeaderReelections)
	}
	// The streaming histogram must account for every non-empty frame.
	if got := res.TargetsPerImage.Count(); got != int64(res.FramesWithTargets) {
		t.Errorf("histogram count %d != non-empty frames %d", got, res.FramesWithTargets)
	}
	if res.Captures == 0 || res.HighResCaptured == 0 {
		t.Errorf("week-long run captured nothing: %+v", res)
	}

	// Flight recorder: both fault events were pinned, and the hour-60
	// follower failure is still retrievable at end of week -- first-per-
	// kind retention must survive the tens of thousands of frames since.
	d := flight.Snapshot()
	if got := d.Anomalies["fault-event"]; got != 2 {
		t.Errorf("flight anomalies[fault-event] = %d, want 2", got)
	}
	hour60 := false
	for _, f := range d.Pinned {
		for _, k := range f.Anomalies {
			if k == "fault-event" && f.TimeS == 60*3600 {
				hour60 = true
			}
		}
	}
	if !hour60 {
		t.Errorf("hour-60 fault event not retrievable from flight dump after %d frames (pinned=%d dropped=%d)",
			d.Frames, len(d.Pinned), d.PinnedDropped)
	}
}

// TestLongHorizonMovingMemoryBounded is the moving-world counterpart: a
// week of 20k airplane-shaped targets advanced in daily windows. Moving
// sets are re-indexed every hour, so an index that kept every epoch it
// ever built would hold 168 of them by the end of the week; retiring the
// epochs behind each window keeps the live heap flat.
func TestLongHorizonMovingMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long simulation in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates heap measurements")
	}
	const (
		horizonS    = 168 * 3600
		windowS     = 24 * 3600
		heapCeiling = 64 << 20
	)
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:           movingWorld(20000, 96, horizonS),
		DurationS:     horizonS,
		Seed:          1,
	}
	r := mustRunner(t, cfg)
	var ms runtime.MemStats
	for day := 1; day <= 7; day++ {
		advance(t, r, float64(day)*windowS)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		t.Logf("day %d: live heap %d MiB", day, ms.HeapAlloc>>20)
		if ms.HeapAlloc > heapCeiling {
			t.Fatalf("day %d: live heap %d MiB exceeds %d MiB ceiling",
				day, ms.HeapAlloc>>20, heapCeiling>>20)
		}
	}
	if res := result(t, r); res.Captures == 0 || res.HighResCaptured == 0 {
		t.Errorf("week-long moving run captured nothing: %+v", res)
	}
}

// TestOneShotMemoryBounded advances the airplane world in one call, as
// Run and a windowed session step do, over a day and over a week. The
// peak live heap during the call must be set by the scenario, not the
// span: an Advance that kept every hourly index epoch until it returned
// peaked over 4x higher over the week than over the day.
func TestOneShotMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long simulation in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates heap measurements")
	}
	app := dataset.Airplanes(1)
	peak := func(hours float64) uint64 {
		// No mustRunner: its cleanup would keep the day's runner, and its
		// index, reachable through the week's run.
		r, err := NewRunner(Config{
			Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
			App:           app,
			DurationS:     hours * 3600,
			Seed:          1,
			Workers:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		runtime.GC()
		peak := peakLiveHeap(func() { err = r.Advance(r.Duration()) })
		if err != nil {
			t.Fatal(err)
		}
		return peak
	}
	day, week := peak(24), peak(168)
	t.Logf("peak live heap: %.1f MiB over 24 h, %.1f MiB over 168 h", float64(day)/(1<<20), float64(week)/(1<<20))
	if 2*week > 3*day {
		t.Errorf("168 h one-shot peak %.1f MiB exceeds 1.5x the 24 h peak %.1f MiB",
			float64(week)/(1<<20), float64(day)/(1<<20))
	}
}

// peakLiveHeap runs fn and returns the largest live heap the collector
// reported while it ran, read every millisecond.
func peakLiveHeap(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func(peak uint64) uint64 {
		metrics.Read(sample)
		return max(peak, sample[0].Value.Uint64())
	}
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = read(peak)
			}
		}
	}()
	fn()
	close(done)
	wg.Wait()
	return read(peak)
}
