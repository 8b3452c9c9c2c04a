package coherence

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem"
)

// Checker is the end-to-end correctness machinery. It maintains a value
// oracle: every committed store writes a globally unique stamp, and every
// completed load is checked against the stamp of the most recent committed
// store to that block. Because MESI's single-writer/multiple-reader
// property makes the directory the per-block serialization point, any
// protocol bug that lets a core read stale data (a lost invalidation, a
// missed hidden copy, a stale LLC grant) surfaces as a stamp mismatch.
//
// The checker is cheap (two map operations per access) and stays enabled in
// all tests; production-scale benchmark runs may disable it.
//
//stash:tileowned (parallel runs give each tile view a strided checker; see NewStridedChecker)
type Checker struct {
	enabled    bool
	oracle     map[mem.Block]uint64
	nextVal    uint64
	stride     uint64 // stamp increment; 0 means the serial default of 1
	violations []string
	maxRecord  int

	// held is the residency gather's scratch (see gatherHoldings), reused
	// so an audit allocates nothing once it has grown.
	held []holding
}

// NewChecker returns an enabled checker.
func NewChecker() *Checker {
	return &Checker{
		enabled:   true,
		oracle:    make(map[mem.Block]uint64),
		maxRecord: 32,
	}
}

// NewStridedChecker returns a disabled checker whose store stamps walk the
// arithmetic progression tile + k·stride. The parallel engine gives each
// tile's fabric view one: stamps stay globally unique (distinct residues
// mod stride) and each stamp depends only on (tile, per-tile commit
// count), so the data values flowing through the protocol are identical at
// every shard count. Load verification needs a globally ordered oracle,
// which is exactly what parallel tiles do not share — hence Shards > 0
// requires the checker disabled, and this constructor does not offer
// enabling.
func NewStridedChecker(tile, stride int) *Checker {
	c := NewChecker()
	c.enabled = false
	c.nextVal = uint64(tile)
	c.stride = uint64(stride)
	return c
}

// SetEnabled toggles checking; a disabled checker still issues store
// stamps (data still flows) but skips load verification.
func (c *Checker) SetEnabled(on bool) { c.enabled = on }

// Enabled reports whether load verification (and the end-of-run audit) is
// on.
func (c *Checker) Enabled() bool { return c.enabled }

// CommitStore returns the value the store to block b must write, and
// records it as the block's current value. It must be called exactly when
// the store commits (the core holds M permission), which under SWMR is the
// block's coherence order.
func (c *Checker) CommitStore(b mem.Block) uint64 {
	step := c.stride
	if step == 0 {
		step = 1
	}
	c.nextVal += step
	// A disabled checker never reads the oracle (CheckLoad and the audit
	// are both gated), so skip the map write: on Checker=false benchmark
	// runs and on the parallel engine's per-tile strided checkers the
	// oracle would otherwise grow to the store working set for nothing.
	// The stamp sequence itself is independent of the map, so data values
	// flowing through the protocol are unchanged.
	if c.enabled {
		c.oracle[b] = c.nextVal
	}
	return c.nextVal
}

// CheckLoad verifies that a completed load observed the block's current
// value. got is the payload the core read from its cache line.
func (c *Checker) CheckLoad(core int, b mem.Block, got uint64) {
	if !c.enabled {
		return
	}
	want := c.oracle[b]
	if got != want {
		c.violate(fmt.Sprintf("core %d loaded %#x from block %#x, oracle says %#x",
			core, got, uint64(b), want))
	}
}

func (c *Checker) violate(msg string) {
	if len(c.violations) < c.maxRecord {
		c.violations = append(c.violations, msg)
	}
}

// Violations returns the recorded coherence violations (empty on a correct
// run).
func (c *Checker) Violations() []string { return c.violations }

// Err returns an error summarizing violations, or nil.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("coherence violations (%d recorded): %s", len(c.violations), c.violations[0])
}

// holding is one private copy of a block: core holds block in state with
// payload data.
type holding struct {
	block mem.Block
	core  int
	state mem.State
	data  uint64
}

func (h holding) owned() bool { return h.state.Owned() }

// gatherHoldings lists every private copy in the fabric, sorted by block,
// then core. With an L2 the outer level defines residency (the directory
// tracks it); the state and payload are the L1's when the L1 holds the
// block Modified. Before the sort, perCore is called once per L1, in core
// order, with that core's copies in cache-slot order. The result lives in
// the checker's scratch and is valid until the next gather.
func gatherHoldings(f *Fabric, perCore func(l1 *L1, copies []holding)) []holding {
	held := f.Checker.held[:0]
	for _, l1 := range f.L1s {
		start := len(held)
		if l1.l2 != nil {
			l1.l2.ForEach(func(ln *cacheLine) {
				h := holding{ln.Block, l1.id, ln.State, ln.Data}
				if inner := l1.cache.Probe(ln.Block); inner != nil && inner.State == mem.Modified {
					h.state, h.data = mem.Modified, inner.Data
				}
				held = append(held, h)
			})
		} else {
			l1.cache.ForEach(func(ln *cacheLine) {
				held = append(held, holding{ln.Block, l1.id, ln.State, ln.Data})
			})
		}
		perCore(l1, held[start:])
	}
	slices.SortFunc(held, func(a, b holding) int {
		if c := cmp.Compare(a.block, b.block); c != 0 {
			return c
		}
		return cmp.Compare(a.core, b.core)
	})
	f.Checker.held = held
	return held
}

// blockRun returns the end of the run of held[i].block's copies that
// starts at i in a sorted gather.
func blockRun(held []holding, i int) int {
	j := i + 1
	for j < len(held) && held[j].block == held[i].block {
		j++
	}
	return j
}

// copiesOf returns block b's copies in a sorted gather.
func copiesOf(held []holding, b mem.Block) []holding {
	i, found := slices.BinarySearchFunc(held, b, func(h holding, b mem.Block) int { return cmp.Compare(h.block, b) })
	if !found {
		return nil
	}
	return held[i:blockRun(held, i)]
}

// Audit verifies the quiescent-state invariants across the whole fabric.
// It must run when no transactions are in flight (after the simulation
// drains):
//
//   - SWMR: an E/M copy of a block is the only copy anywhere.
//   - Inclusion: every L1-resident block is present in its home LLC bank.
//   - Directory coverage: every L1-resident block is tracked by its home
//     directory with the holder in the sharer set — or, for the stash
//     directory, is the sole copy of a block whose LLC line has the hidden
//     bit set (relaxed inclusion).
//   - Tracking precision (notified evictions only): every tracked sharer
//     actually holds the block.
//
// It returns the list of invariant violations found.
func Audit(f *Fabric) []string {
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 64 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}

	held := gatherHoldings(f, func(l1 *L1, _ []holding) {
		if l1.l2 != nil {
			// L1 ⊆ L2 (private-hierarchy inclusion).
			l1.cache.ForEach(func(ln *cacheLine) {
				if l1.l2.Probe(ln.Block) == nil {
					report("core %d: L1 block %#x missing from its L2", l1.id, uint64(ln.Block))
				}
			})
		}
		l1.tbes.forEach(func(b mem.Block, _ *l1TBE) {
			report("core %d has an unfinished transaction for block %#x", l1.id, uint64(b))
		})
		if len(l1.stalled) != 0 {
			report("core %d has %d stalled accesses", l1.id, len(l1.stalled))
		}
		l1.evict.forEach(func(b mem.Block, _ evictBuf) {
			report("core %d has an unacknowledged eviction for block %#x", l1.id, uint64(b))
		})
	})
	for _, bank := range f.Banks {
		if n := bank.tbes.len(); n != 0 {
			report("bank %d has %d unfinished transactions", bank.id, n)
		}
	}

	// Violations are reported in block, then core order, so Audit's output
	// is a pure function of the machine state.
	for i, j := 0, 0; i < len(held); i = j {
		j = blockRun(held, i)
		b, copies := held[i].block, held[i:j]
		if len(copies) > 1 && slices.ContainsFunc(copies, holding.owned) {
			report("SWMR violated for block %#x: %d holders with an owned copy present", uint64(b), len(copies))
		}

		bank := f.Banks[f.HomeBank(b)]
		line := bank.llc.Probe(b)
		if line == nil {
			report("inclusion violated: block %#x cached in L1 but absent from LLC bank %d", uint64(b), bank.id)
			continue
		}
		entry := bank.dir.Probe(b)
		if entry == nil {
			hidden := line.Flags&flagHidden != 0
			if !hidden {
				report("tracking lost: block %#x cached in L1, no directory entry, hidden bit clear", uint64(b))
			} else if len(copies) != 1 {
				report("hidden block %#x has %d copies, want exactly 1", uint64(b), len(copies))
			}
			continue
		}
		if entry.Overflowed {
			// Limited-pointer overflow: the entry conservatively covers
			// every core (broadcast on invalidation), so exactness checks
			// do not apply.
			continue
		}
		for _, h := range copies {
			if !entry.Sharers.Has(h.core) {
				report("directory entry for block %#x omits holder core %d", uint64(b), h.core)
			}
		}
		if !f.Params.SilentCleanEvictions {
			entry.Sharers.ForEach(func(core int) {
				if !slices.ContainsFunc(copies, func(h holding) bool { return h.core == core }) {
					report("directory entry for block %#x lists core %d, which holds nothing", uint64(b), core)
				}
			})
		}
	}

	// Hidden bits must only cover blocks with at most one (E/M or sole-S)
	// copy; a hidden bit on a block with no copies is legal (stale, cleared
	// lazily by discovery).
	for _, bank := range f.Banks {
		bank.llc.ForEach(func(ln *cacheLine) {
			if ln.Flags&flagHidden == 0 {
				return
			}
			if bank.dir.Probe(ln.Block) != nil {
				report("block %#x is both tracked and hidden", uint64(ln.Block))
			}
			if n := len(copiesOf(held, ln.Block)); n > 1 {
				report("hidden block %#x has %d holders", uint64(ln.Block), n)
			}
		})
	}
	return bad
}
