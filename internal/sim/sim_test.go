package sim

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/geo"
	"eagleeye/internal/obs"
	"eagleeye/internal/sched"
)

// smallWorld builds a compact deterministic target set so tests run fast:
// targets clustered in a handful of equatorial and mid-latitude spots the
// paper-orbit ground track crosses within a few hours.
func smallWorld(n int, seed int64) *dataset.Set {
	rng := rand.New(rand.NewSource(seed))
	s := &dataset.Set{Name: "small"}
	centers := []geo.LatLon{
		{Lat: 0, Lon: 0}, {Lat: 20, Lon: 40}, {Lat: -30, Lon: 120},
		{Lat: 50, Lon: -80}, {Lat: -10, Lon: -60},
	}
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		s.Targets = append(s.Targets, dataset.Target{
			ID:    i,
			Pos:   geo.LatLon{Lat: c.Lat + rng.NormFloat64()*3, Lon: c.Lon + rng.NormFloat64()*3}.Normalize(),
			Value: 0.5 + 0.5*rng.Float64(),
		})
	}
	return s
}

// trackWorld puts n targets (sigma ~33 km) around each of the group-0
// leader's sub-points at 10-minute intervals of the first 40 minutes, so
// a 2-satellite run images frames holding hundreds of detections.
func trackWorld(t *testing.T, n int) *dataset.Set {
	t.Helper()
	c, err := constellation.Build(constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2}, DefaultEpoch)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	s := &dataset.Set{Name: "track"}
	for k := 1; k <= 4; k++ {
		p := c.Groups[0].Leader.Prop.StateAtElapsed(float64(k) * 600).SubPoint
		for i := 0; i < n; i++ {
			s.Targets = append(s.Targets, dataset.Target{
				ID:    len(s.Targets),
				Pos:   geo.LatLon{Lat: p.Lat + rng.NormFloat64()*0.3, Lon: p.Lon + rng.NormFloat64()*0.3}.Normalize(),
				Value: 0.5 + 0.5*rng.Float64(),
			})
		}
	}
	return s
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil app accepted")
	}
	if _, err := Run(Config{App: smallWorld(10, 1)}); err == nil {
		t.Error("zero satellites accepted")
	}
}

func TestLowResSeesMoreThanHighRes(t *testing.T) {
	w := smallWorld(2000, 2)
	lo := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LowResOnly, Satellites: 2},
		App:           w, DurationS: 4 * 3600, Seed: 1,
	})
	hi := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.HighResOnly, Satellites: 2},
		App:           w, DurationS: 4 * 3600, Seed: 1,
	})
	if lo.CoveragePct() <= hi.CoveragePct() {
		t.Errorf("low-res %.2f%% not above high-res %.2f%%", lo.CoveragePct(), hi.CoveragePct())
	}
	// Swath ratio is 10: low-res should see roughly an order of magnitude
	// more (loose bounds; geometry and clustering add variance).
	if lo.CoveragePct() < 3*hi.CoveragePct() {
		t.Errorf("low-res %.2f%% not >> high-res %.2f%%", lo.CoveragePct(), hi.CoveragePct())
	}
	if hi.HighResCaptured != hi.LowResSeen {
		t.Error("high-res-only: captured should equal seen")
	}
}

func TestEagleEyeBeatsHighResOnly(t *testing.T) {
	// The paper's headline: same satellite count, more high-res coverage.
	w := smallWorld(2000, 3)
	ee := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:           w, DurationS: 4 * 3600, Seed: 1, ValidateSchedules: true,
	})
	hi := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.HighResOnly, Satellites: 4},
		App:           w, DurationS: 4 * 3600, Seed: 1,
	})
	if ee.CoveragePct() <= hi.CoveragePct() {
		t.Errorf("EagleEye %.2f%% not above high-res-only %.2f%%", ee.CoveragePct(), hi.CoveragePct())
	}
	if ee.Captures == 0 || ee.Detections == 0 || ee.Clusters == 0 {
		t.Errorf("EagleEye pipeline idle: %+v", ee)
	}
	if ee.SchedSolves != ee.FramesWithTargets {
		t.Errorf("solves %d != non-empty frames %d", ee.SchedSolves, ee.FramesWithTargets)
	}
}

func TestEagleEyeBoundedByItsLeaders(t *testing.T) {
	// EagleEye cannot capture what its leaders never see.
	w := smallWorld(1500, 4)
	ee := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:           w, DurationS: 4 * 3600, Seed: 1,
	})
	if ee.HighResCaptured > ee.LowResSeen {
		t.Errorf("captured %d > seen %d", ee.HighResCaptured, ee.LowResSeen)
	}
}

func TestDeterminism(t *testing.T) {
	w := smallWorld(800, 5)
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 2 * 3600, Seed: 42,
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.HighResCaptured != b.HighResCaptured || a.Detections != b.Detections ||
		a.LowResSeen != b.LowResSeen || a.Captures != b.Captures {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

// normalized strips the timing-derived fields (scheduler wall clock and
// deadline misses vary with machine load) so results can be compared
// byte-for-byte across worker counts.
func normalized(r *Result) Result {
	c := *r
	c.SchedWallTotal = 0
	c.SchedWallMax = 0
	c.MissedDeadline = 0
	c.SchedPivotWall = 0
	c.ClusterPivotWall = 0
	// Node/iteration counts are deterministic except when a solve is cut
	// off by its wall-clock limit, which depends on machine load.
	c.SchedNodes = 0
	c.SchedIters = 0
	c.ClusterNodes = 0
	c.ClusterIters = 0
	return c
}

// decodeTrace parses a JSON trace and zeroes its timing fields.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []TraceRecord {
	t.Helper()
	var out []TraceRecord
	dec := json.NewDecoder(buf)
	for dec.More() {
		var rec TraceRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("bad trace line: %v", err)
		}
		rec.SchedMS = 0
		rec.Deadline = false
		rec.SchedNodes = 0
		rec.SchedIters = 0
		rec.SchedGap = 0
		rec.ClusterNodes = 0
		rec.ClusterIters = 0
		out = append(out, rec)
	}
	return out
}

func TestWorkersDeterministic(t *testing.T) {
	// The tentpole guarantee: Workers=N is byte-identical to Workers=1
	// (same Result, same trace stream) for a fixed seed, across every
	// organization and with the recapture extension on.
	cases := []struct {
		name string
		cfg  Config
	}{
		{"leader-follower-4-groups", Config{
			Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
			App:           smallWorld(1500, 50), DurationS: 2 * 3600, Seed: 7,
		}},
		{"mix-camera", Config{
			Constellation: constellation.Config{Kind: constellation.MixCamera, Satellites: 4},
			App:           smallWorld(1200, 51), DurationS: 2 * 3600, Seed: 7,
		}},
		{"high-res-only", Config{
			Constellation: constellation.Config{Kind: constellation.HighResOnly, Satellites: 4},
			App:           smallWorld(1200, 52), DurationS: 2 * 3600, Seed: 7,
		}},
		{"recapture-dedup", Config{
			Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
			App:           polarWorld(600, 53), DurationS: 4 * 3600, Seed: 7, RecaptureDedup: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tr1, trN bytes.Buffer
			seq := tc.cfg
			seq.Workers = 1
			seq.Trace = &tr1
			par := tc.cfg
			par.Workers = 4
			par.Trace = &trN
			a := run(t, seq)
			b := run(t, par)
			if na, nb := normalized(a), normalized(b); !reflect.DeepEqual(na, nb) {
				t.Errorf("Workers=1 and Workers=4 diverge:\n%+v\nvs\n%+v", na, nb)
			}
			ta := decodeTrace(t, &tr1)
			tb := decodeTrace(t, &trN)
			if !reflect.DeepEqual(ta, tb) {
				t.Errorf("traces diverge: %d vs %d records", len(ta), len(tb))
			}
		})
	}
}

// TestClusterFallbacksCounted: frames whose cover has more candidates
// than the simulator's cover ILP takes (MaxILPCandidates) fall back to the
// greedy cover, and eagleeye_cluster_fallbacks_total counts them. No other
// series or trace field shows these frames.
func TestClusterFallbacksCounted(t *testing.T) {
	reg := obs.NewRegistry()
	run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           trackWorld(t, 400), DurationS: 3600, Seed: 7,
		Workers: 1, Metrics: reg,
	})
	fallbacks := reg.CounterValue("eagleeye_cluster_fallbacks_total")
	solves := reg.CounterValue("eagleeye_sched_solves_total")
	if fallbacks == 0 || fallbacks > solves {
		t.Errorf("cluster fallbacks %d over %d frame solves; want between 1 and the solve count", fallbacks, solves)
	}
}

func TestWorkersDefaultMatchesSequential(t *testing.T) {
	// Workers=0 (all CPUs) must agree with the sequential run too.
	w := smallWorld(1000, 54)
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:           w, DurationS: 2 * 3600, Seed: 3,
	}
	seq := cfg
	seq.Workers = 1
	par := cfg // Workers: 0
	a := run(t, seq)
	b := run(t, par)
	if na, nb := normalized(a), normalized(b); !reflect.DeepEqual(na, nb) {
		t.Errorf("Workers=0 diverges from Workers=1:\n%+v\nvs\n%+v", na, nb)
	}
}

func TestHighResOnlyEnergyAttribution(t *testing.T) {
	// High-Res-Only satellites point-and-shoot: capture energy books to
	// the follower-role budget, no ML compute anywhere, downlink on the
	// imagery producers.
	w := smallWorld(1000, 55)
	hi := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.HighResOnly, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1,
	})
	if hi.LeaderBudget == nil || hi.FollowerBudget == nil {
		t.Fatal("budgets missing")
	}
	if hi.FollowerBudget.CameraJ <= 0 {
		t.Error("high-res strip capture energy missing from follower budget")
	}
	if hi.FollowerBudget.ComputeJ != 0 {
		t.Error("high-res-only satellites run no detection; compute energy booked")
	}
	if hi.FollowerBudget.TXJ <= 0 {
		t.Error("high-res imagery downlink energy missing")
	}
	if hi.LeaderBudget.CameraJ != 0 || hi.LeaderBudget.ComputeJ != 0 {
		t.Errorf("no low-res role exists in a high-res-only run: %+v", hi.LeaderBudget)
	}

	// Low-Res-Only keeps booking to the leader/mono budget: continuous
	// detection compute plus captures.
	lo := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LowResOnly, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1,
	})
	if lo.LeaderBudget.CameraJ <= 0 || lo.LeaderBudget.ComputeJ <= 0 {
		t.Errorf("low-res strip energy missing: %+v", lo.LeaderBudget)
	}
	if lo.FollowerBudget.CameraJ != 0 {
		t.Error("low-res-only run booked capture energy to the follower budget")
	}
}

func TestMixCameraDegradesWithComputeDelay(t *testing.T) {
	// Fig. 13: longer compute leaves less pointing time; large delays give
	// ~zero coverage.
	w := smallWorld(1500, 6)
	var prev float64 = 101
	for _, delay := range []float64{1.4, 5.5, 11.8} {
		r := run(t, Config{
			Constellation: constellation.Config{Kind: constellation.MixCamera, Satellites: 2},
			App:           w, DurationS: 4 * 3600, Seed: 1, ComputeDelayS: delay,
		})
		if r.CoveragePct() > prev+1e-9 {
			t.Errorf("coverage %.2f%% at delay %v not below %.2f%%", r.CoveragePct(), delay, prev)
		}
		prev = r.CoveragePct()
	}
	if prev > 0.5 {
		t.Errorf("11.8 s delay coverage = %.2f%%, want ~0", prev)
	}
}

func TestLeaderFollowerToleratesComputeDelay(t *testing.T) {
	// Fig. 9/13: the leader-follower organization is insensitive to
	// compute latency (the follower trails the leader by more than the
	// compute distance).
	w := smallWorld(1500, 7)
	fast := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 4 * 3600, Seed: 1, ComputeDelayS: 1.4,
	})
	slow := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 4 * 3600, Seed: 1, ComputeDelayS: 11.8,
	})
	if fast.HighResCaptured == 0 {
		t.Fatal("no captures at all")
	}
	drop := 1 - float64(slow.HighResCaptured)/float64(fast.HighResCaptured)
	if drop > 0.25 {
		t.Errorf("leader-follower lost %.0f%% coverage to compute delay; should be tolerant", drop*100)
	}
}

func TestMoreSatellitesMoreCoverage(t *testing.T) {
	w := smallWorld(2000, 8)
	prev := -1.0
	for _, n := range []int{2, 4, 8} {
		r := run(t, Config{
			Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: n},
			App:           w, DurationS: 3 * 3600, Seed: 1,
		})
		if r.CoveragePct() < prev {
			t.Errorf("coverage decreased at n=%d: %.2f%% < %.2f%%", n, r.CoveragePct(), prev)
		}
		prev = r.CoveragePct()
	}
}

func TestGreedySchedulerRuns(t *testing.T) {
	w := smallWorld(1000, 9)
	ilp := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1,
	})
	greedy := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1, Scheduler: sched.Greedy{},
	})
	// Greedy must work and not beat the ILP by more than noise.
	if greedy.HighResCaptured == 0 {
		t.Error("greedy captured nothing")
	}
	if float64(greedy.HighResCaptured) > 1.1*float64(ilp.HighResCaptured)+2 {
		t.Errorf("greedy (%d) clearly beats ILP (%d)", greedy.HighResCaptured, ilp.HighResCaptured)
	}
}

func TestRecallOverrideReducesButNotProportionally(t *testing.T) {
	// Fig. 15: coverage degrades slower than recall because footprints
	// capture undetected neighbors.
	w := smallWorld(2000, 10)
	full := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1, RecallOverride: 1.0,
	})
	low := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1, RecallOverride: 0.2,
	})
	if full.HighResCaptured == 0 {
		t.Fatal("no captures")
	}
	ratio := float64(low.HighResCaptured) / float64(full.HighResCaptured)
	if ratio >= 1 {
		t.Errorf("recall 0.2 did not reduce coverage (ratio %.2f)", ratio)
	}
	if ratio < 0.2 {
		t.Errorf("coverage ratio %.2f fell below recall itself; clustering should soften the drop", ratio)
	}
}

func TestTargetsPerImageRecorded(t *testing.T) {
	w := smallWorld(2000, 11)
	r := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1,
	})
	if got := r.TargetsPerImage.Count(); got != int64(r.FramesWithTargets) {
		t.Errorf("per-image histogram count %d != non-empty frames %d", got, r.FramesWithTargets)
	}
	if r.TargetsPerImage.Buckets[0] != 0 {
		t.Error("histogram recorded empty frames")
	}
	if r.TargetsPerImage.Max <= 0 {
		t.Error("non-positive per-image maximum")
	}
	if p50 := r.TargetsPerImage.Percentile(50); p50 <= 0 || p50 > r.TargetsPerImage.Max {
		t.Errorf("p50 %d outside (0, max %d]", p50, r.TargetsPerImage.Max)
	}
}

func TestEnergyBudgetsPopulated(t *testing.T) {
	w := smallWorld(1000, 12)
	r := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1,
	})
	if r.LeaderBudget == nil || r.FollowerBudget == nil {
		t.Fatal("budgets missing")
	}
	if r.LeaderBudget.ComputeJ <= 0 {
		t.Error("leader compute energy should be positive")
	}
	if r.FollowerBudget.ComputeJ != 0 {
		t.Error("follower should not consume compute energy")
	}
	if r.LeaderBudget.TXJ != 0 {
		t.Error("leader should not downlink imagery")
	}
	if r.FollowerBudget.TXJ <= 0 {
		t.Error("follower downlink energy should be positive")
	}
}

func TestClusteringAblation(t *testing.T) {
	// Clustering must not reduce coverage and should reduce captures on
	// clustered targets.
	w := smallWorld(3000, 13)
	with := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1,
	})
	without := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1, NoClustering: true,
	})
	if with.HighResCaptured < without.HighResCaptured {
		t.Errorf("clustering reduced coverage: %d < %d", with.HighResCaptured, without.HighResCaptured)
	}
}

func TestMovingTargetsCanEscape(t *testing.T) {
	// Fast movers drift out of aimed footprints between detection and
	// capture (§4.6): coverage of a fast-moving world is below that of the
	// same world frozen.
	// 1200 m/s movers drift >10 km during the detection-to-capture window,
	// guaranteeing escapes; realistic aircraft speeds mostly stay inside
	// the footprint (which is why EagleEye works for airplane tracking).
	rng := rand.New(rand.NewSource(14))
	static := smallWorld(1200, 14)
	moving := &dataset.Set{Name: "moving", Moving: true}
	for _, tgt := range static.Targets {
		tgt.SpeedMS = 1200
		tgt.HeadingDeg = rng.Float64() * 360
		moving.Targets = append(moving.Targets, tgt)
	}
	rs := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           static, DurationS: 3 * 3600, Seed: 1,
	})
	rm := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           moving, DurationS: 3 * 3600, Seed: 1,
	})
	if rs.HighResCaptured == 0 {
		t.Fatal("static world uncaptured")
	}
	if rm.HighResCaptured >= rs.HighResCaptured {
		t.Errorf("fast movers (%d) not below static (%d)", rm.HighResCaptured, rs.HighResCaptured)
	}
}

func TestCoveragePctBounds(t *testing.T) {
	r := &Result{TotalTargets: 0}
	if r.CoveragePct() != 0 || r.LowResSeenPct() != 0 {
		t.Error("zero-target percentages should be 0")
	}
}

func TestCommsAccounting(t *testing.T) {
	w := smallWorld(1500, 40)
	r := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 1,
	})
	if r.Captures > 0 && r.CrosslinkBytes <= 0 {
		t.Error("captures without crosslink traffic")
	}
	// §5.3: crosslink volume is negligible -- well under 1 MB per orbit.
	orbits := 3 * 3600 / (94 * 60.0)
	if perOrbit := r.CrosslinkBytes / orbits; perOrbit > 1e6 {
		t.Errorf("crosslink = %v bytes/orbit, want < 1 MB", perOrbit)
	}
	if r.DownlinkableFraction <= 0 || r.DownlinkableFraction > 1 {
		t.Errorf("downlinkable fraction = %v", r.DownlinkableFraction)
	}
}
