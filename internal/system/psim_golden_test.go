package system

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil/leakcheck"
)

// psimGoldenConfig is the parallel-engine pinning config: 8 cores (so the
// full shard sweep {1,2,4,8} is exercised), checker off (parallel runs
// cannot host the globally ordered oracle — Validate enforces this) and
// occupancy sampling on, so the epoch-grid sampler is pinned too.
func psimGoldenConfig(kind string) Config {
	c := goldenConfig(kind)
	c.Cores = 8
	c.Checker = false
	c.Shards = 1
	return c
}

// psimShardCounts is the shard sweep every fixture must reproduce
// byte-identically.
var psimShardCounts = []int{1, 2, 4, 8}

// runPsimGolden drives cfg on the parallel engine with every per-tile
// queue's shuffle seed pinned, exactly like runGolden pins the serial
// engine's.
func runPsimGolden(t *testing.T, cfg Config, shuffle uint64) *Results {
	t.Helper()
	pf, procs, err := BuildParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pf.Views {
		v.Engine.SetShuffleSeed(shuffle)
	}
	sampler := &occupancySampler{}
	if cfg.SamplePeriod > 0 {
		pf.EpochHook = epochSampler(sampler, pf.Root, procs, sim.Cycle(cfg.SamplePeriod))
	}
	if err := pf.Drive(procs, 0); err != nil {
		t.Fatal(err)
	}
	return collect(cfg, pf.Root, procs, sampler, pf.Cycles(), pf.EventsRun())
}

// TestPsimGoldenResults pins the parallel engine's output for every
// directory kind and shuffle seed, and proves the cross-engine equivalence
// contract: the Results are byte-identical at every shard count in
// {1,2,4,8}. The fixtures are the parallel engine's own (the psim
// event order intentionally differs from the legacy serial order — see
// the internal/psim package doc); what this test guarantees is that the
// order is one fixed schedule regardless of how many workers compute it.
// Regenerate with -update only for intentional model changes.
func TestPsimGoldenResults(t *testing.T) {
	defer leakcheck.Check(t)
	for _, kind := range DirKinds() {
		for _, shuffle := range goldenShuffleSeeds {
			name := golName(kind, shuffle)
			t.Run(name, func(t *testing.T) {
				var ref []byte
				for _, shards := range psimShardCounts {
					cfg := psimGoldenConfig(kind)
					cfg.Shards = shards
					res := runPsimGolden(t, cfg, shuffle)
					// Shards is part of the serialized Config; normalize it
					// so the shard sweep is byte-comparable.
					res.Config.Shards = 1
					got, err := json.MarshalIndent(res, "", " ")
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, '\n')
					if ref == nil {
						ref = got
					} else if string(got) != string(ref) {
						t.Fatalf("shards=%d diverged from shards=%d", shards, psimShardCounts[0])
					}
				}
				matchGolden(t, "psim_golden_"+name+".json", ref)
			})
		}
	}
}

// TestParallelRunTwiceIdentical is the parallel engine's self-contained
// determinism check through the public Run entry point: same config, two
// fresh machines, identical Results — including the goroutine scheduling
// noise of real workers.
func TestParallelRunTwiceIdentical(t *testing.T) {
	defer leakcheck.Check(t)
	for _, kind := range DirKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			cfg := psimGoldenConfig(kind)
			cfg.Shards = 4
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if string(ja) != string(jb) {
				t.Fatal("two parallel runs of the same config diverged")
			}
		})
	}
}

// TestParallelConfigValidation pins the Shards knob's error surface.
func TestParallelConfigValidation(t *testing.T) {
	cfg := psimGoldenConfig(DirStash)
	cfg.Shards = cfg.Cores + 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("Shards > Cores must be rejected")
	}
	cfg = psimGoldenConfig(DirStash)
	cfg.Checker = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("Shards > 0 with the checker on must be rejected")
	}
}
