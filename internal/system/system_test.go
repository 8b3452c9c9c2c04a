package system

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/testutil/leakcheck"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// tiny returns a fast configuration for unit tests.
func tiny(workload, kind string, coverage float64) Config {
	c := DefaultConfig(workload)
	c.DirKind = kind
	c.Coverage = coverage
	c.Cores = 4
	c.L1Sets = 16
	c.L1Ways = 2
	c.LLCSetsPerBank = 64
	c.LLCWays = 4
	c.AccessesPerCore = 2000
	c.WorkloadScale = 0.05
	return c
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 3 },
		func(c *Config) { c.DirKind = "bogus" },
		func(c *Config) { c.Coverage = 0 },
		func(c *Config) { c.DirWays = 0 },
		func(c *Config) { c.Workload = "" },
		func(c *Config) { c.AccessesPerCore = 0 },
		func(c *Config) { c.WorkloadScale = 0 },
		func(c *Config) { c.CustomMix = &trace.Mix{} }, // both name and mix
	}
	for i, corrupt := range bad {
		c := DefaultConfig("canneal")
		corrupt(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	c := DefaultConfig("canneal")
	if err := c.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	c := tiny("not-a-workload", DirStash, 1)
	if _, err := Run(c); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDirEntriesPerBank(t *testing.T) {
	c := DefaultConfig("canneal") // 16 cores, 512 blocks/core -> 8192 aggregate
	cases := []struct {
		coverage float64
		want     int
	}{
		{1, 512}, {0.5, 256}, {0.25, 128}, {0.125, 64}, {2, 1024},
	}
	for _, cs := range cases {
		c.Coverage = cs.coverage
		if got := c.DirEntriesPerBank(); got != cs.want {
			t.Errorf("coverage %v: entries/bank = %d, want %d", cs.coverage, got, cs.want)
		}
	}
	// Floor: never below one full set of ways.
	c.Coverage = 0.0001
	if got := c.DirEntriesPerBank(); got != c.DirWays {
		t.Errorf("tiny coverage: entries/bank = %d, want %d", got, c.DirWays)
	}
}

func TestRunAllKindsAllChecksPass(t *testing.T) {
	for _, kind := range DirKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tiny("canneal", kind, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles == 0 || res.Loads+res.Stores != 4*2000 {
				t.Fatalf("implausible results: cycles=%d accesses=%d", res.Cycles, res.Loads+res.Stores)
			}
			if res.L1Misses == 0 || res.TotalFlitHops == 0 {
				t.Fatal("no misses or traffic recorded")
			}
			if res.Energy.Total() <= 0 {
				t.Fatal("no energy estimated")
			}
			if s := res.Summary(); len(s) == 0 {
				t.Fatal("empty summary")
			}
		})
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if _, err := Run(tiny(name, DirStash, 0.25)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStashBeatsSparseAtLowCoverage(t *testing.T) {
	// The headline behavior at unit-test scale: with a starved directory,
	// stash must (a) nearly eliminate recall invalidations and (b) not run
	// slower than sparse.
	sparse, err := Run(tiny("canneal", DirSparse, 0.125))
	if err != nil {
		t.Fatal(err)
	}
	stash, err := Run(tiny("canneal", DirStash, 0.125))
	if err != nil {
		t.Fatal(err)
	}
	if sparse.InvsRecall == 0 {
		t.Fatal("sparse at 1/8 coverage recorded no recall invalidations; test is not stressing the directory")
	}
	if stash.InvsRecall*10 > sparse.InvsRecall {
		t.Errorf("stash recalls %d not << sparse recalls %d", stash.InvsRecall, sparse.InvsRecall)
	}
	if stash.StashEvictions == 0 {
		t.Error("stash never stashed")
	}
	if float64(stash.Cycles) > float64(sparse.Cycles)*1.05 {
		t.Errorf("stash (%d cycles) slower than sparse (%d cycles)", stash.Cycles, sparse.Cycles)
	}
}

func TestCustomMixRun(t *testing.T) {
	mix := &trace.Mix{
		Name:        "custom",
		PrivateFrac: 0.8, SharedRWFrac: 0.2,
		WriteFrac:     0.3,
		PrivateBlocks: 64, SharedBlocks: 32,
	}
	c := tiny("", DirStash, 0.5)
	c.Workload = ""
	c.CustomMix = mix
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.WorkloadName() != "custom" {
		t.Fatalf("workload name = %q", res.Config.WorkloadName())
	}
}

func TestSamplingProducesOccupancy(t *testing.T) {
	c := tiny("canneal", DirStash, 0.25)
	c.SamplePeriod = 5000
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sampled {
		t.Fatal("no occupancy samples collected")
	}
	if res.AvgDirOccupancy <= 0 || res.AvgDirOccupancy > 1 {
		t.Fatalf("implausible occupancy %v", res.AvgDirOccupancy)
	}
	if res.AvgPrivateFraction <= 0 || res.AvgPrivateFraction > 1 {
		t.Fatalf("implausible private fraction %v", res.AvgPrivateFraction)
	}
}

func TestReproducibility(t *testing.T) {
	a, err := Run(tiny("barnes", DirStash, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tiny("barnes", DirStash, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TotalFlitHops != b.TotalFlitHops || a.L1Misses != b.L1Misses {
		t.Fatalf("identical configs diverged: %d/%d vs %d/%d cycles/traffic",
			a.Cycles, a.TotalFlitHops, b.Cycles, b.TotalFlitHops)
	}
	c, err := Run(func() Config { cfg := tiny("barnes", DirStash, 0.25); cfg.Seed = 2; return cfg }())
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles == a.Cycles && c.TotalFlitHops == a.TotalFlitHops {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// TestRunContextStops: a cancelled context, or one whose deadline passes
// mid-run, stops a multi-second simulation on the serial engine and on the
// parallel one, and the run returns the context's error and no Results.
func TestRunContextStops(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := QuickConfig("canneal")
		cfg.Cores = 16
		cfg.Coverage = 0.125
		cfg.AccessesPerCore = 200_000
		cfg.Checker = false
		cfg.Shards = shards
		for _, tc := range []struct {
			name string
			ctx  func() (context.Context, context.CancelFunc)
			want error
		}{
			{"cancelled", func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, cancel
			}, context.Canceled},
			{"deadline", func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 30*time.Millisecond)
			}, context.DeadlineExceeded},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.name), func(t *testing.T) {
				leakcheck.Check(t)
				ctx, cancel := tc.ctx()
				defer cancel()
				start := time.Now()
				res, err := RunContext(ctx, cfg)
				if !errors.Is(err, tc.want) || res != nil {
					t.Fatalf("RunContext = %v, %v; want no Results and %v", res, err, tc.want)
				}
				if d := time.Since(start); d > time.Second {
					t.Fatalf("stopped run took %v to return", d)
				}
			})
		}
	}
}

// TestSeedReachesReplacementPolicies pins the satellite fix for the
// determinism audit: the run seed must reach every random replacement
// policy (it used to stop at the trace generator, leaving the cache
// configs at Seed 0 and the directory at a bank-only constant).
func TestSeedReachesReplacementPolicies(t *testing.T) {
	build := func(seed int64) ([]int64, error) {
		c := tiny("barnes", DirStash, 0.25)
		c.ReplacementPolicy = cache.Random
		c.Seed = seed
		fab, _, err := Build(c)
		if err != nil {
			return nil, err
		}
		return []int64{
			fab.L1s[0].Cache().Config().Seed,
			fab.L1s[1].Cache().Config().Seed,
			fab.Banks[0].LLC().Config().Seed,
		}, nil
	}
	a, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("structure %d: run seeds 1 and 2 produced the same policy seed %d", i, a[i])
		}
	}
	if a[0] == a[1] {
		t.Errorf("cores 0 and 1 share L1 policy seed %d; victim sequences march in lockstep", a[0])
	}
	// And the machine still runs (and reproduces) under the random policy.
	run := func() *Results {
		c := tiny("barnes", DirStash, 0.25)
		c.ReplacementPolicy = cache.Random
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if x, y := run(), run(); x.Cycles != y.Cycles || x.TotalFlitHops != y.TotalFlitHops {
		t.Fatalf("random policy runs with one seed diverged: %d vs %d cycles", x.Cycles, y.Cycles)
	}
}

func TestSilentEvictionConfig(t *testing.T) {
	c := tiny("canneal", DirStash, 0.25)
	c.SilentCleanEvictions = true
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
}

func TestBuildExposesFabric(t *testing.T) {
	fab, procs, err := Build(tiny("canneal", DirStash, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(fab.L1s) != 4 || len(procs) != 4 {
		t.Fatalf("unexpected shape: %d L1s, %d processors", len(fab.L1s), len(procs))
	}
	if err := fab.Drive(procs, 0); err != nil {
		t.Fatal(err)
	}
}

func TestL2Hierarchy(t *testing.T) {
	c := tiny("canneal", DirStash, 0.25)
	c.L2Sets = 64
	c.L2Ways = 4
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.L2Hits == 0 {
		t.Fatal("no L2 hits recorded")
	}
	// Coverage denominator is the L2 capacity now.
	if res.Config.AggregatePrivateBlocks() != 4*64*4 {
		t.Fatalf("private blocks = %d", res.Config.AggregatePrivateBlocks())
	}
	// The L2 absorbs misses: hierarchy miss rate must drop vs. no-L2.
	base, err := Run(tiny("canneal", DirStash, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if res.L1MissRate >= base.L1MissRate {
		t.Fatalf("L2 did not reduce network misses: %.3f vs %.3f", res.L1MissRate, base.L1MissRate)
	}
}

func TestL2Validation(t *testing.T) {
	c := tiny("canneal", DirStash, 0.25)
	c.L2Sets = 64 // ways missing
	if err := c.Validate(); err == nil {
		t.Fatal("half-specified L2 accepted")
	}
}

func TestTraceFileReplay(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for c := 0; c < 4; c++ {
		mix := workloads.MustGet("barnes").Scaled(0.05)
		s, err := trace.NewStream(mix, c, 4, 500, 1)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("core%02d.trace", c))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteStream(f, s); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, path)
	}
	c := tiny("", DirStash, 0.25)
	c.Workload = ""
	c.TraceFiles = paths
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads+res.Stores != 4*500 {
		t.Fatalf("replayed %d accesses, want 2000", res.Loads+res.Stores)
	}
	if res.Config.WorkloadName() != "trace-files" {
		t.Fatalf("workload name = %q", res.Config.WorkloadName())
	}
	// A replayed trace must reproduce the equivalent synthetic run exactly.
	ref := tiny("barnes", DirStash, 0.25)
	ref.AccessesPerCore = 500
	refRes, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Cycles != res.Cycles {
		t.Fatalf("trace replay diverged: %d vs %d cycles", res.Cycles, refRes.Cycles)
	}
}

func TestTraceFileValidation(t *testing.T) {
	c := tiny("", DirStash, 0.25)
	c.Workload = ""
	c.TraceFiles = []string{"only-one.trace"} // 4 cores need 4 files
	if err := c.Validate(); err == nil {
		t.Fatal("wrong trace file count accepted")
	}
	c.TraceFiles = []string{"a", "b", "c", "d"}
	c.Workload = "barnes" // both selected
	if err := c.Validate(); err == nil {
		t.Fatal("trace files + named workload accepted")
	}
	c.Workload = ""
	if _, err := Run(c); err == nil {
		t.Fatal("missing trace files did not error")
	}
}
