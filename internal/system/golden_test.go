package system

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden result fixtures")

// goldenShuffleSeeds are the engine tie-break seeds the determinism suite
// pins: FIFO plus two arbitrary permutations.
var goldenShuffleSeeds = []uint64{0, 1, 9}

func goldenConfig(kind string) Config {
	c := DefaultConfig("blackscholes")
	c.DirKind = kind
	c.Coverage = 0.5
	c.Cores = 4
	c.L1Sets = 16
	c.L1Ways = 2
	c.LLCSetsPerBank = 64
	c.LLCWays = 4
	c.AccessesPerCore = 1500
	c.WorkloadScale = 0.05
	c.SamplePeriod = 5000
	return c
}

// runGolden builds and drives the machine exactly like Run, but with the
// engine's shuffle seed pinned before any event is scheduled.
func runGolden(t *testing.T, cfg Config, shuffle uint64) *Results {
	t.Helper()
	fab, procs, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab.Engine.SetShuffleSeed(shuffle)
	sampler := &occupancySampler{}
	if cfg.SamplePeriod > 0 {
		sampler.arm(fab, procs, sim.Cycle(cfg.SamplePeriod))
	}
	if err := fab.Drive(procs, 0); err != nil {
		t.Fatal(err)
	}
	return collect(cfg, fab, procs, sampler, fab.Engine.Now(), fab.Engine.EventsRun())
}

// TestGoldenResults pins the byte-exact simulation output for every
// directory kind and a set of shuffle seeds. The fixtures were captured
// with the original container/heap event queue, so this is the proof that
// the rewritten scheduler preserves the engine's total event order: any
// ordering divergence perturbs cycle counts, network hops or energy and
// the JSON comparison fails. Regenerate with `go test ./internal/system
// -run TestGoldenResults -update` only for intentional model changes.
func TestGoldenResults(t *testing.T) {
	for _, kind := range DirKinds() {
		for _, shuffle := range goldenShuffleSeeds {
			name := golName(kind, shuffle)
			t.Run(name, func(t *testing.T) {
				res := runGolden(t, goldenConfig(kind), shuffle)
				got, err := json.MarshalIndent(res, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				matchGolden(t, "golden_"+name+".json", got)
			})
		}
	}
}

// goldenVariants are the protocol options goldenConfig leaves at their
// defaults: three-hop forwarding, a private L2, limited-pointer entries,
// silent clean evictions and multiple outstanding misses; and canneal,
// whose directory conflicts stash live entries, so discovery runs under
// the default protocol (blackscholes at goldenConfig's coverage sends no
// discovery broadcast). Each gets its own fixture for the two
// organizations whose conflicts the controllers handle differently
// (recall versus stash), at shuffle seed 0.
var goldenVariants = []struct {
	name string
	set  func(*Config)
}{
	{"threehop", func(c *Config) { c.ThreeHopForwarding = true }},
	{"l2", func(c *Config) { c.L2Sets, c.L2Ways = 32, 4 }},
	{"ptr1", func(c *Config) { c.PointerLimit = 1 }},
	{"silent", func(c *Config) { c.SilentCleanEvictions = true }},
	{"mshr4", func(c *Config) { c.MSHRs = 4 }},
	{"canneal", func(c *Config) { c.Workload = "canneal" }},
}

// goldenVariantKinds are the organizations each variant is pinned for.
var goldenVariantKinds = []string{DirSparse, DirStash}

// variantGoldenName names a variant fixture.
func variantGoldenName(variant, kind string) string {
	return "golden_" + variant + "_" + golName(kind, 0) + ".json"
}

// TestVariantGoldenResults pins the byte-exact output of every protocol
// variant, so a controller change that only those options reach cannot
// slip past TestGoldenResults' default-protocol fixtures. Regenerate with
// -update only for intentional model changes.
func TestVariantGoldenResults(t *testing.T) {
	for _, v := range goldenVariants {
		for _, kind := range goldenVariantKinds {
			name := variantGoldenName(v.name, kind)
			t.Run(name, func(t *testing.T) {
				cfg := goldenConfig(kind)
				v.set(&cfg)
				got, err := json.MarshalIndent(runGolden(t, cfg, 0), "", " ")
				if err != nil {
					t.Fatal(err)
				}
				matchGolden(t, name, append(got, '\n'))
			})
		}
	}
}

// matchGolden compares got with the fixture testdata/name, or rewrites the
// fixture under -update.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("results diverged from golden fixture %s\n(run with -update only if the model intentionally changed)", path)
	}
}

func golName(kind string, shuffle uint64) string {
	return kind + "_s" + string(rune('0'+shuffle))
}

// TestRunTwiceIdentical is the self-contained determinism check: two
// fresh machines with the same config produce identical Results without
// reference to any fixture.
func TestRunTwiceIdentical(t *testing.T) {
	for _, kind := range DirKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			cfg := goldenConfig(kind)
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
				t.Fatal("two runs of the same config diverged")
			}
		})
	}
}

// TestShuffledSelfMessagesKeepOrder drives every organization at 4 and 8
// cores under 8 shuffle seeds, on canneal at 1/8 coverage, where a bank
// often sends its own tile's L1 a data grant and, in the same cycle, a
// recall Inv for the next transaction. Both take the local router's
// latency, so they tie; the protocol relies on per-pair FIFO delivery,
// and an Inv delivered first is answered as spurious and leaves the grant
// to install a copy the directory no longer tracks, which the checker
// reports.
func TestShuffledSelfMessagesKeepOrder(t *testing.T) {
	const shuffles = 8
	for _, cores := range []int{4, 8} {
		for _, kind := range DirKinds() {
			cfg := goldenConfig(kind)
			cfg.Workload = "canneal"
			cfg.Coverage = 0.125
			cfg.Cores = cores
			failed := 0
			for shuffle := uint64(1); shuffle <= shuffles; shuffle++ {
				fab, procs, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fab.Engine.SetShuffleSeed(shuffle)
				if err := fab.Drive(procs, 0); err != nil {
					if failed == 0 {
						t.Errorf("%s at %d cores, shuffle seed %d: %v", kind, cores, shuffle, err)
					}
					failed++
				}
			}
			if failed > 0 {
				t.Errorf("%s at %d cores: %d of %d shuffle seeds failed", kind, cores, failed, shuffles)
			}
		}
	}
}
