// Package system assembles complete simulated machines from a declarative
// Config, runs them, and collects the cross-component Results the
// experiment harness consumes. It is the layer the public facade and the
// command-line tools sit on.
package system

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ModelVersion names the simulation model's behaviour. runner.Key folds it
// into every cache key, so a result cached by an earlier model is never
// served as a hit. Bump it with any change that alters the Results of some
// config; TestModelVersionPinsGoldens fails when the golden fixtures change
// while it stays put.
const ModelVersion = "1"

// Directory organization names accepted by Config.DirKind.
const (
	DirFullMap = "fullmap"
	DirSparse  = "sparse"
	DirStash   = "stash"
	DirStashSS = "stash-ss" // stash that also stashes singleton-Shared entries
	DirCuckoo  = "cuckoo"
)

// DirKinds lists the accepted directory organization names.
func DirKinds() []string {
	return []string{DirFullMap, DirSparse, DirStash, DirStashSS, DirCuckoo}
}

// Config describes one simulation. Zero fields take defaults from
// DefaultConfig; Validate reports impossible combinations.
type Config struct {
	// Cores must be a mesh-tileable count from SupportedCores():
	// 1, 2, 4, 8, 16, 32, 64, 128, or 256.
	Cores int

	// Directory organization and size. Coverage is directory entries
	// divided by aggregate L1 capacity in blocks (the paper's size axis);
	// it is ignored by fullmap.
	DirKind  string
	Coverage float64
	DirWays  int

	// Cache geometry. L1 defaults to the paper's 32KB 4-way (128x4);
	// the LLC bank defaults to 1MB 16-way (1024x16). L2Sets/L2Ways, when
	// both nonzero, add an inclusive private L2 per core (e.g. 256x8 =
	// 128KB); the directory then tracks L2 contents and the coverage
	// ratio is computed against aggregate L2 capacity.
	L1Sets, L1Ways          int
	L2Sets, L2Ways          int
	LLCSetsPerBank, LLCWays int
	ReplacementPolicy       cache.PolicyKind
	SilentCleanEvictions    bool
	// ThreeHopForwarding makes owners forward data directly to requesters
	// instead of routing it through the directory (the default).
	ThreeHopForwarding bool
	// MSHRs is the per-core outstanding-miss limit; 0 or 1 models the
	// blocking in-order core of the base configuration.
	MSHRs int
	// PointerLimit selects the directory entry format: 0 keeps full-map
	// sharer vectors; P > 0 models Dir_P-B limited-pointer entries
	// (overflow past P sharers invalidates by broadcast) with
	// correspondingly narrower — cheaper — entries.
	PointerLimit int

	// Workload selection: a name from internal/workloads, a custom mix,
	// or externally captured trace files (one per core, in the format
	// cmd/tracegen -raw emits). Exactly one of the three.
	Workload        string
	CustomMix       *trace.Mix
	TraceFiles      []string
	AccessesPerCore int
	WorkloadScale   float64
	Seed            int64

	// Checker enables the data-value oracle and post-run audit. It is on
	// by default; large benchmark sweeps may disable it for speed.
	Checker bool

	// SamplePeriod, when nonzero, samples directory occupancy and the
	// private-entry fraction every that-many cycles (Fig 1 / Table 3).
	SamplePeriod uint64

	// Shards, when nonzero, runs the machine on the parallel engine
	// (internal/psim) with that many worker goroutines. 0 — the default —
	// keeps the serial engine. Parallel runs are deterministic and
	// bit-identical across shard counts, but follow the psim event order
	// rather than the serial engine's, so their results are compared
	// against psim fixtures, not serial ones. Requires Checker=false (the
	// value oracle needs a global store order that parallel tiles do not
	// share). The json tag keeps serial (Shards=0) Results fixtures
	// byte-identical to those captured before this field existed.
	Shards int `json:",omitempty"`

	// Timing overrides; zero fields keep coherence.DefaultParams values.
	MemLatency  uint64
	BankLatency uint64
}

// DefaultConfig returns the paper's 16-core model running the given
// workload with the stash directory at 1x coverage.
func DefaultConfig(workload string) Config {
	return Config{
		Cores:           16,
		DirKind:         DirStash,
		Coverage:        1,
		DirWays:         4,
		L1Sets:          128,
		L1Ways:          4,
		LLCSetsPerBank:  1024,
		LLCWays:         16,
		Workload:        workload,
		AccessesPerCore: 50_000,
		WorkloadScale:   1,
		Seed:            1,
		Checker:         true,
	}
}

// QuickConfig returns a scaled-down machine (16KB L1s, 128KB LLC banks,
// half-size working sets, 20k accesses/core) that preserves every capacity
// ratio of the full model while running an order of magnitude faster. The
// benchmark harness uses it.
func QuickConfig(workload string) Config {
	c := DefaultConfig(workload)
	c.L1Sets = 64
	c.LLCSetsPerBank = 256
	c.LLCWays = 8
	c.AccessesPerCore = 20_000
	c.WorkloadScale = 0.5
	return c
}

// meshShapes maps supported core counts to mesh geometry.
var meshShapes = map[int][2]int{
	1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 8: {4, 2},
	16: {4, 4}, 32: {8, 4}, 64: {8, 8},
	128: {16, 8}, 256: {16, 16},
}

// SupportedCores lists the mesh-tileable core counts in ascending order.
// Error messages and CLI help derive from it so they cannot drift from
// meshShapes.
func SupportedCores() []int {
	out := make([]int, 0, len(meshShapes))
	for c := range meshShapes { //stash:ignore determinism sorted before use
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// supportedCoresList renders SupportedCores for error messages.
func supportedCoresList() string {
	var b strings.Builder
	for i, c := range SupportedCores() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// Validate checks the configuration (after defaulting).
func (c *Config) Validate() error {
	if _, ok := meshShapes[c.Cores]; !ok {
		return fmt.Errorf("system: unsupported core count %d (want %s)", c.Cores, supportedCoresList())
	}
	switch c.DirKind {
	case DirFullMap, DirSparse, DirStash, DirStashSS, DirCuckoo:
	default:
		return fmt.Errorf("system: unknown directory kind %q (want one of %v)", c.DirKind, DirKinds())
	}
	if c.DirKind != DirFullMap && c.Coverage <= 0 {
		return fmt.Errorf("system: coverage must be positive, got %v", c.Coverage)
	}
	if c.DirWays < 1 {
		return fmt.Errorf("system: directory ways must be >= 1, got %d", c.DirWays)
	}
	selected := 0
	if c.Workload != "" {
		selected++
	}
	if c.CustomMix != nil {
		selected++
	}
	if len(c.TraceFiles) != 0 {
		selected++
	}
	if selected == 0 {
		return fmt.Errorf("system: no workload selected")
	}
	if selected > 1 {
		return fmt.Errorf("system: choose exactly one of workload name, custom mix, trace files")
	}
	if n := len(c.TraceFiles); n != 0 && n != c.Cores {
		return fmt.Errorf("system: %d trace files for %d cores", n, c.Cores)
	}
	if len(c.TraceFiles) == 0 && c.AccessesPerCore < 1 {
		return fmt.Errorf("system: accesses per core must be >= 1, got %d", c.AccessesPerCore)
	}
	if c.WorkloadScale <= 0 {
		return fmt.Errorf("system: workload scale must be positive, got %v", c.WorkloadScale)
	}
	if (c.L2Sets == 0) != (c.L2Ways == 0) {
		return fmt.Errorf("system: L2 sets and ways must be set together (got %dx%d)", c.L2Sets, c.L2Ways)
	}
	if c.Shards < 0 || c.Shards > c.Cores {
		return fmt.Errorf("system: shards must be in [0,%d], got %d", c.Cores, c.Shards)
	}
	if c.Shards > 0 && c.Checker {
		return fmt.Errorf("system: the checker needs a global store order; parallel runs (Shards=%d) require Checker=false", c.Shards)
	}
	return nil
}

// HasL2 reports whether the configuration adds private L2s.
func (c *Config) HasL2() bool { return c.L2Sets > 0 && c.L2Ways > 0 }

// mix resolves the workload mix.
func (c *Config) mix() (trace.Mix, error) {
	var m trace.Mix
	if c.CustomMix != nil {
		m = *c.CustomMix
	} else {
		var err error
		m, err = workloads.Get(c.Workload)
		if err != nil {
			return trace.Mix{}, err
		}
	}
	return m.Scaled(c.WorkloadScale), nil
}

// WorkloadName returns the display name of the selected workload.
func (c *Config) WorkloadName() string {
	if c.CustomMix != nil {
		return c.CustomMix.Name
	}
	if len(c.TraceFiles) != 0 {
		return "trace-files"
	}
	return c.Workload
}

// DirEntryBits returns the modeled width of one directory entry under the
// configured format: a 28-bit tag/state overhead plus either a full-map
// sharer vector (one bit per core) or PointerLimit pointers of
// ceil(log2(cores)) bits each plus an overflow bit.
func (c *Config) DirEntryBits() int {
	const overhead = 28
	if c.PointerLimit <= 0 {
		return overhead + c.Cores
	}
	ptr := 1
	for 1<<ptr < c.Cores {
		ptr++
	}
	return overhead + c.PointerLimit*ptr + 1
}

// AggregateL1Blocks returns the total L1 capacity in blocks.
func (c *Config) AggregateL1Blocks() int {
	return c.Cores * c.L1Sets * c.L1Ways
}

// AggregatePrivateBlocks returns the total private-cache capacity the
// directory must cover — the denominator of the coverage ratio: aggregate
// L2 capacity when private L2s exist (they include the L1s), aggregate L1
// capacity otherwise.
func (c *Config) AggregatePrivateBlocks() int {
	if c.HasL2() {
		return c.Cores * c.L2Sets * c.L2Ways
	}
	return c.AggregateL1Blocks()
}

// DirEntriesPerBank returns the directory slice size implied by Coverage.
// The per-bank set count is rounded up to a power of two; when rounding
// occurs the realized coverage is slightly above the requested one, which
// the Results record.
func (c *Config) DirEntriesPerBank() int {
	total := int(c.Coverage * float64(c.AggregatePrivateBlocks()))
	per := total / c.Cores
	if per < c.DirWays {
		per = c.DirWays
	}
	sets := per / c.DirWays
	p := 1
	for p < sets {
		p <<= 1
	}
	return p * c.DirWays
}

// params builds the protocol parameters.
func (c *Config) params() coherence.Params {
	p := coherence.DefaultParams(c.Cores)
	p.SilentCleanEvictions = c.SilentCleanEvictions
	p.ThreeHopForwarding = c.ThreeHopForwarding
	if c.MSHRs > 0 {
		p.MSHRs = c.MSHRs
	}
	p.PointerLimit = c.PointerLimit
	if c.MemLatency != 0 {
		p.MemLatency = simCycle(c.MemLatency)
	}
	if c.BankLatency != 0 {
		p.BankLatency = simCycle(c.BankLatency)
	}
	return p
}
