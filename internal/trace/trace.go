// Package trace generates the synthetic multi-core memory reference streams
// that drive the simulator. The generators substitute for the PARSEC and
// SPLASH-2 binaries the paper runs (see DESIGN.md): what the directory
// experiments depend on is the *sharing mix* of the access stream — how much
// of it is core-private, read-shared, write-shared, producer-consumer or
// migratory, over what working-set size and with what locality — and the Mix
// type exposes exactly those knobs.
//
// Streams are deterministic functions of (mix, core id, seed), so every
// experiment is reproducible.
package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/mem"
)

// Region classifies the target of one generated access.
type Region uint8

// The generated sharing regions.
const (
	RegionPrivate    Region = iota // per-core data, never shared
	RegionSharedRead               // read-mostly data shared by all cores
	RegionSharedRW                 // read-write data shared by all cores
	RegionProdCons                 // written by core i, read by core i+1
	RegionMigratory                // read-modify-written by cores in turn
	numRegions
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionPrivate:
		return "private"
	case RegionSharedRead:
		return "shared-read"
	case RegionSharedRW:
		return "shared-rw"
	case RegionProdCons:
		return "producer-consumer"
	case RegionMigratory:
		return "migratory"
	}
	return fmt.Sprintf("Region(%d)", uint8(r))
}

// Mix parameterizes a workload's sharing behavior. The five fractions must
// sum to 1 (±1e-6).
type Mix struct {
	Name string

	// Region selection probabilities.
	PrivateFrac    float64
	SharedReadFrac float64
	SharedRWFrac   float64
	ProdConsFrac   float64
	MigratoryFrac  float64

	// WriteFrac is the store probability within the private and shared-RW
	// regions (shared-read is always loads; producer-consumer and
	// migratory have their own fixed read/write structure).
	WriteFrac float64

	// Working-set sizes in blocks.
	PrivateBlocks   int // per core
	SharedBlocks    int // each of shared-read and shared-RW
	ProdConsBlocks  int // per producer-consumer channel
	MigratoryBlocks int

	// ZipfS skews block popularity within each region (rand.Zipf s
	// parameter, > 1). Zero selects uniformly.
	ZipfS float64

	// MigratoryPhase is how many accesses a core performs before the
	// migratory token advances; it controls hand-off frequency.
	MigratoryPhase int
}

// Validate checks the mix.
func (m Mix) Validate() error {
	sum := m.PrivateFrac + m.SharedReadFrac + m.SharedRWFrac + m.ProdConsFrac + m.MigratoryFrac
	if sum < 1-1e-6 || sum > 1+1e-6 {
		return fmt.Errorf("trace: %s: region fractions sum to %v, want 1", m.Name, sum)
	}
	if m.WriteFrac < 0 || m.WriteFrac > 1 {
		return fmt.Errorf("trace: %s: write fraction %v out of [0,1]", m.Name, m.WriteFrac)
	}
	if m.PrivateFrac > 0 && m.PrivateBlocks < 1 {
		return fmt.Errorf("trace: %s: private region used but empty", m.Name)
	}
	if (m.SharedReadFrac > 0 || m.SharedRWFrac > 0) && m.SharedBlocks < 1 {
		return fmt.Errorf("trace: %s: shared region used but empty", m.Name)
	}
	if m.ProdConsFrac > 0 && m.ProdConsBlocks < 1 {
		return fmt.Errorf("trace: %s: producer-consumer region used but empty", m.Name)
	}
	if m.MigratoryFrac > 0 && m.MigratoryBlocks < 1 {
		return fmt.Errorf("trace: %s: migratory region used but empty", m.Name)
	}
	if m.ZipfS != 0 && m.ZipfS <= 1 {
		return fmt.Errorf("trace: %s: ZipfS must be > 1 (or 0 for uniform), got %v", m.Name, m.ZipfS)
	}
	return nil
}

// Scaled returns a copy of the mix with every working-set size multiplied
// by f (minimum 1 block). Experiments use it to shrink workloads for quick
// benches without changing the sharing shape.
func (m Mix) Scaled(f float64) Mix {
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	s := m
	s.PrivateBlocks = scale(m.PrivateBlocks)
	s.SharedBlocks = scale(m.SharedBlocks)
	s.ProdConsBlocks = scale(m.ProdConsBlocks)
	s.MigratoryBlocks = scale(m.MigratoryBlocks)
	return s
}

// Address-space layout: regions are laid out at fixed block offsets far
// enough apart that no realistic scaling overlaps them. The per-core and
// per-channel strides are deliberately odd (not multiples of any power of
// two a cache could index with): a power-of-two stride would collapse every
// core's private block k onto the same LLC/directory set, manufacturing
// conflict behavior no real address-space layout exhibits.
const (
	baseSharedRead mem.Block = 0x0010_0000
	baseSharedRW   mem.Block = 0x0020_0000
	baseMigratory  mem.Block = 0x0030_0000
	baseProdCons   mem.Block = 0x0040_0000 // + channel * prodConsStride
	basePrivate    mem.Block = 0x0100_0000 // + core * privateStride
	prodConsStride mem.Block = 0x0001_0037
	privateStride  mem.Block = 0x0001_4CB5
)

// Stream generates one core's access sequence. It implements the
// coherence.AccessSource contract (Next).
//
//stash:tileowned
type Stream struct {
	mix    Mix
	core   int
	cores  int
	length int
	pos    int
	rng    *rand.Rand

	zipfPrivate  *rand.Zipf
	zipfShared   *rand.Zipf
	zipfProdCons *rand.Zipf

	// Memoization (see memo.go): replay is a previously recorded identical
	// stream to serve instead of generating; rec accumulates this stream's
	// output, packed, for publication once fully consumed.
	replay []uint32
	rec    []uint32
	key    streamKey
}

// NewStream builds core's stream of length accesses. The same (mix, core,
// cores, length, seed) tuple always produces the same stream.
func NewStream(mix Mix, core, cores, length int, seed int64) (*Stream, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if core < 0 || core >= cores {
		return nil, fmt.Errorf("trace: core %d out of range [0,%d)", core, cores)
	}
	key := streamKey{mix: mix, core: core, cores: cores, length: length, seed: seed}
	if t := memoLookup(key); t != nil {
		return &Stream{mix: mix, core: core, cores: cores, length: length, replay: t}, nil
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(core)*7919 + 1))
	s := &Stream{mix: mix, core: core, cores: cores, length: length, rng: rng, key: key}
	if length > 0 && length <= memoMaxStream {
		s.rec = make([]uint32, 0, length)
	}
	if mix.ZipfS > 1 {
		if mix.PrivateBlocks > 0 {
			s.zipfPrivate = rand.NewZipf(rng, mix.ZipfS, 1, uint64(mix.PrivateBlocks-1))
		}
		if mix.SharedBlocks > 0 {
			s.zipfShared = rand.NewZipf(rng, mix.ZipfS, 1, uint64(mix.SharedBlocks-1))
		}
		if mix.ProdConsBlocks > 0 {
			s.zipfProdCons = rand.NewZipf(rng, mix.ZipfS, 1, uint64(mix.ProdConsBlocks-1))
		}
	}
	return s, nil
}

// pick returns an index in [0, n) — Zipf-skewed when configured.
//
//stash:hotpath
func (s *Stream) pick(n int, z *rand.Zipf) int {
	if z != nil {
		return int(z.Uint64()) % n
	}
	return s.rng.Intn(n)
}

// Next implements the access-source contract.
//
//stash:hotpath
func (s *Stream) Next() (mem.Access, bool) {
	if s.pos >= s.length {
		return mem.Access{}, false
	}
	step := s.pos
	s.pos++
	if s.replay != nil {
		return unpackAccess(s.replay[step]), true
	}

	r := s.rng.Float64()
	m := &s.mix
	var b mem.Block
	var write bool
	switch {
	case r < m.PrivateFrac:
		b = basePrivate + mem.Block(s.core)*privateStride + mem.Block(s.pick(m.PrivateBlocks, s.zipfPrivate))
		write = s.rng.Float64() < m.WriteFrac

	case r < m.PrivateFrac+m.SharedReadFrac:
		b = baseSharedRead + mem.Block(s.pick(m.SharedBlocks, s.zipfShared))

	case r < m.PrivateFrac+m.SharedReadFrac+m.SharedRWFrac:
		b = baseSharedRW + mem.Block(s.pick(m.SharedBlocks, s.zipfShared))
		write = s.rng.Float64() < m.WriteFrac

	case r < m.PrivateFrac+m.SharedReadFrac+m.SharedRWFrac+m.ProdConsFrac:
		// Each core produces into its own channel and consumes its left
		// neighbor's; half the references produce, half consume.
		if s.rng.Intn(2) == 0 {
			ch := mem.Block(s.core)
			b = baseProdCons + ch*prodConsStride + mem.Block(s.pick(m.ProdConsBlocks, s.zipfProdCons))
			write = true
		} else {
			ch := mem.Block((s.core + s.cores - 1) % s.cores)
			b = baseProdCons + ch*prodConsStride + mem.Block(s.pick(m.ProdConsBlocks, s.zipfProdCons))
		}

	default:
		// Migratory: a token advances every MigratoryPhase steps; all
		// cores track the same schedule, so each block is read-modify-
		// written by (roughly) one core at a time and then hands off.
		phase := m.MigratoryPhase
		if phase <= 0 {
			phase = 8
		}
		slot := step / phase
		b = baseMigratory + mem.Block(slot%m.MigratoryBlocks)
		// Alternate read/write to form the RMW pattern.
		write = step%2 == 1
	}
	switch {
	case s.rec == nil:
	case b >= memoBlockLimit:
		s.rec = nil // cannot be packed: this stream is never memoized
	default:
		s.rec = append(s.rec, packAccess(b, write))
		if len(s.rec) == s.length {
			memoPublish(s.key, s.rec)
			s.rec = nil
		}
	}
	return mem.Access{Addr: mem.AddrOf(b), Write: write}, true
}

// Remaining returns how many accesses the stream will still produce.
//
//stash:hotpath
func (s *Stream) Remaining() int { return s.length - s.pos }

// RegionOf classifies a generated block address back into its region;
// profiling and tests use it.
func RegionOf(b mem.Block) Region {
	switch {
	case b >= basePrivate:
		return RegionPrivate
	case b >= baseProdCons:
		return RegionProdCons
	case b >= baseMigratory:
		return RegionMigratory
	case b >= baseSharedRW:
		return RegionSharedRW
	default:
		return RegionSharedRead
	}
}
