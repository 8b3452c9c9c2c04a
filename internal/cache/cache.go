// Package cache implements the generic set-associative storage structure
// behind the private L1 caches and the shared LLC banks. It provides tag
// lookup, victim selection through pluggable replacement policies (LRU,
// tree-PLRU, NRU, random), and per-structure hit and miss accounting. The
// directory organizations in internal/core keep their own entry arrays and
// share only the replacement policies (cache.Policy), through core's
// assocStore.
package cache

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/stats"
)

// Line is one cache way: a tag plus the simulator-visible metadata.
// The coherence controllers interpret State and Flags; Data carries the
// 64-bit payload used by the data-value correctness oracle. A line does not
// record its own (set, way): the cache finds a line's way by scanning its
// set, which keeps a line at 24 bytes and lets New leave the array as the
// allocator zeroed it.
//
//stash:tileowned
type Line struct {
	Block mem.Block
	Data  uint64
	Flags uint32
	State mem.State
}

// Valid reports whether the line currently holds a block.
//
//stash:hotpath
func (l *Line) Valid() bool { return l.State != mem.Invalid }

// Invalidate clears the line back to its empty state.
//
//stash:hotpath
func (l *Line) Invalidate() {
	l.State = mem.Invalid
	l.Flags = 0
	l.Data = 0
}

// Config describes one set-associative structure.
type Config struct {
	Name string // for error messages
	Sets int    // number of sets; must be a power of two
	Ways int    // associativity; must be >= 1
	// IndexShift drops this many low-order block bits before the set index
	// is extracted. Banked structures (the LLC) are interleaved on the low
	// block bits, so their per-bank set index must come from the bits above
	// the bank-select bits to avoid mapping every resident block into a
	// fraction of the sets.
	IndexShift uint
	Policy     PolicyKind
	Seed       int64 // used by the random policy only
}

// Cache is a set-associative tag array. It is purely a storage structure:
// all coherence semantics live in the controllers that own it.
//
// A set gets storage on its first fill, so a job pays for the sets it
// touches rather than for the capacity it models: a slot map sends each
// set to its slot in an arena of line chunks, and the replacement policy's
// per-set state is indexed by slot and grows a chunk at a time. A set that
// was never filled holds nothing, so a lookup there misses without
// allocating. A cache of at most one chunk is filled whole at New.
//
//stash:tileowned
type Cache struct {
	// slots maps a set to 1 + its slot, or to 0 while the set was never
	// filled. Every cache of at most one chunk shares identitySlots.
	slots []int32
	// chunks is the line arena: chunk k holds the ways of slots
	// k*chunkSets up to (k+1)*chunkSets, slot-major. A chunk never moves
	// once allocated, because controllers hold a *Line across events.
	chunks [][]Line
	policy slotPolicy

	stats Stats

	// victimFn adapts the caller's per-line skip predicate to the policy's
	// way-indexed one. It is bound on the first Victim call with a skip
	// predicate and parameterized through the two fields below, so Victim
	// allocates no closure per call, and a cache never asked to skip (every
	// cache of the model checker's root world) allocates none at all.
	victimFn   func(way int) bool
	victimSkip func(*Line) bool
	victimSlot int32

	ways  int32
	used  int32 // slots handed out
	shift uint8 // Config.IndexShift
}

// chunkSets is how many sets one chunk of the line arena holds.
const chunkSets = 16

// identitySlots is the slot map of a cache of at most one chunk: set i in
// slot i. No entry is 0, so it is never written and every such cache
// shares it.
var identitySlots = [chunkSets]int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// New returns an empty cache described by cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Sets > math.MaxInt32 {
		return nil, fmt.Errorf("cache %s: sets must be a positive power of two below 2^31, got %d", cfg.Name, cfg.Sets)
	}
	if cfg.Ways < 1 || cfg.Ways > math.MaxInt32 {
		return nil, fmt.Errorf("cache %s: ways must be in [1, 2^31), got %d", cfg.Name, cfg.Ways)
	}
	c := &Cache{ways: int32(cfg.Ways), shift: uint8(cfg.IndexShift)}
	filled := 0
	if cfg.Sets <= chunkSets {
		filled = cfg.Sets
		c.slots = identitySlots[:filled:filled]
		c.chunks = [][]Line{make([]Line, filled*cfg.Ways)}
		c.used = int32(filled)
	} else {
		c.slots = make([]int32, cfg.Sets)
	}
	pol, err := newPolicy(cfg.Policy, filled, cfg.Ways, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", cfg.Name, err)
	}
	c.policy = pol
	return c, nil
}

// MustNew is New but panics on a bad configuration. It is for tests and
// internal construction from already-validated configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset returns the cache to what New built, as far as any caller can
// tell: every line invalid and zeroed, the replacement policy at its
// initial state and the statistics zeroed. The filled chunks are cleared
// and kept, and each filled set keeps its slot.
func (c *Cache) Reset() {
	for _, chunk := range c.chunks {
		clear(chunk)
	}
	c.policy.Reset()
	c.stats = Stats{}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.slots) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return int(c.ways) }

// Capacity returns the total number of lines.
func (c *Cache) Capacity() int { return len(c.slots) * int(c.ways) }

// Stats counts a tag array's activity.
type Stats struct {
	Hits, Misses stats.Counter // Lookup outcomes (Probe counts neither)
	Installs     stats.Counter
	Evictions    stats.Counter // valid lines displaced by Install or removed by Evict
}

// Stats returns the cache's counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// SetIndex returns the set that block b maps to.
//
//stash:hotpath
func (c *Cache) SetIndex(b mem.Block) int {
	return int((b >> c.shift) & mem.Block(len(c.slots)-1))
}

// setLines returns the ways of the set whose slot map entry is slot, which
// must not be 0.
//
//stash:hotpath
func (c *Cache) setLines(slot int32) []Line {
	i, w := uint(slot-1), uint(c.ways)
	off := i % chunkSets * w
	return c.chunks[i/chunkSets][off : off+w]
}

// flat returns the lines of a cache of at most one chunk, which holds set
// i in slot i and so is already in set-major order, or nil for a cache
// whose sets get storage on first fill. The walks below take it to skip
// the slot map on the model checker's one-set caches, whose encoding runs
// them once per explored state.
func (c *Cache) flat() []Line {
	if len(c.slots) > chunkSets {
		return nil
	}
	return c.chunks[0]
}

// fill gives a never-filled set the next slot, allocating a chunk of lines
// and the policy's state for it when the slot starts one, and returns the
// set's new slot map entry. Victim is the only caller: a line is only ever
// filled through a way Victim returned.
func (c *Cache) fill(set int) int32 {
	if c.used%chunkSets == 0 {
		c.chunks = append(c.chunks, make([]Line, chunkSets*int(c.ways)))
		c.policy.grow(chunkSets)
	}
	c.used++
	c.slots[set] = c.used
	return c.used
}

// Lookup finds b and returns its line, recording a hit (and touching the
// replacement state) or a miss. It returns nil on a miss.
//
//stash:hotpath
func (c *Cache) Lookup(b mem.Block) *Line {
	if slot := c.slots[c.SetIndex(b)]; slot != 0 {
		ways := c.setLines(slot)
		for w := range ways {
			if ln := &ways[w]; ln.Valid() && ln.Block == b {
				c.stats.Hits.Inc()
				c.policy.Touch(int(slot-1), w)
				return ln
			}
		}
	}
	c.stats.Misses.Inc()
	return nil
}

// Probe finds b without touching replacement state or hit/miss counters.
// Controllers use it for snoops, audits and inclusion checks.
//
//stash:hotpath
func (c *Cache) Probe(b mem.Block) *Line {
	if slot := c.slots[c.SetIndex(b)]; slot != 0 {
		ways := c.setLines(slot)
		for w := range ways {
			if ln := &ways[w]; ln.Valid() && ln.Block == b {
				return ln
			}
		}
	}
	return nil
}

// Victim selects a line of b's set to replace, preferring invalid lines.
// The skip predicate (optional) excludes lines the caller cannot use right
// now; it is applied to invalid lines too (callers that reserve ways for
// in-flight fills must skip them), so predicates that inspect Line.Block
// must check Valid first — an invalid line's Block is stale. Victim
// returns nil if every way is excluded. The first Victim call for a set
// gives the set its storage.
//
//stash:hotpath
func (c *Cache) Victim(b mem.Block, skip func(*Line) bool) *Line {
	set := c.SetIndex(b)
	slot := c.slots[set]
	if slot == 0 {
		slot = c.fill(set)
	}
	ways := c.setLines(slot)
	for w := range ways {
		if ln := &ways[w]; !ln.Valid() && (skip == nil || !skip(ln)) {
			return ln
		}
	}
	var excluded func(way int) bool
	if skip != nil {
		if c.victimFn == nil {
			c.bindVictimFn()
		}
		c.victimSkip, c.victimSlot, excluded = skip, slot, c.victimFn
	}
	w := c.policy.Victim(int(slot-1), excluded)
	c.victimSkip = nil
	if w < 0 {
		return nil
	}
	return &ways[w]
}

// bindVictimFn binds victimFn, once per cache.
func (c *Cache) bindVictimFn() {
	c.victimFn = func(way int) bool { return c.victimSkip(&c.setLines(c.victimSlot)[way]) }
}

// Install writes block b into the given line of b's set (obtained from
// Victim or Probe), marking it most-recently-used. The line must be a way
// of b's set in this cache; anything else panics. If the line was valid,
// the previous occupant is counted as an eviction; the caller is
// responsible for having handled its coherence obligations first.
//
//stash:hotpath
func (c *Cache) Install(ln *Line, b mem.Block, state mem.State, data uint64) {
	slot, way := c.wayOf(b, ln)
	if ln.Valid() {
		c.stats.Evictions.Inc()
	}
	ln.Block = b
	ln.State = state
	ln.Data = data
	ln.Flags = 0
	c.stats.Installs.Inc()
	c.policy.Insert(slot, way)
}

// Evict invalidates the given line, counting an eviction if it was valid.
//
//stash:hotpath
func (c *Cache) Evict(ln *Line) {
	if ln.Valid() {
		c.stats.Evictions.Inc()
	}
	ln.Invalidate()
}

// Touch marks ln most-recently-used without counting a hit. The line must
// be valid and owned by this cache: its way is found in the set its Block
// maps to, and an invalid line's Block is stale.
//
//stash:hotpath
func (c *Cache) Touch(ln *Line) {
	c.policy.Touch(c.wayOf(ln.Block, ln))
}

// wayOf returns the slot of b's set and ln's way within it, panicking when
// ln is not one of that set's ways: a line of another set or of another
// cache is a caller bug.
//
//stash:hotpath
func (c *Cache) wayOf(b mem.Block, ln *Line) (slot, way int) {
	set := c.SetIndex(b)
	if s := c.slots[set]; s != 0 {
		ways := c.setLines(s)
		for w := range ways {
			if &ways[w] == ln {
				return int(s - 1), w
			}
		}
	}
	panic(fmt.Sprintf("cache: line is not a way of set %d", set))
}

// Locate maps a *Line owned by this cache, valid or not, back to its
// (set, way) coordinates, and panics on any other line. The model checker
// uses it to serialize controller state canonically: TBEs hold raw line
// pointers, and (set, way) is the stable name a pointer corresponds to. It
// scans every filled set, which suits the checker's one-set caches; the
// simulation's paths never call it.
func (c *Cache) Locate(ln *Line) (set, way int) {
	if lines := c.flat(); lines != nil {
		for i := range lines {
			if &lines[i] == ln {
				return i / int(c.ways), i % int(c.ways)
			}
		}
		panic("cache: line not owned by this cache")
	}
	for set, slot := range c.slots {
		if slot == 0 {
			continue
		}
		ways := c.setLines(slot)
		for w := range ways {
			if &ways[w] == ln {
				return set, w
			}
		}
	}
	panic("cache: line not owned by this cache")
}

// ForEachSlot calls fn for every line — valid or not — in set-major slot
// order, passing the flat slot index (set*Ways + way). Unlike ForEach it
// exposes empty ways, so a caller can serialize the complete tag-array
// layout (which ways are free matters to victim selection). The ways of a
// set that was never filled are shown as invalid zero lines that belong
// to no set; fn must not keep them.
func (c *Cache) ForEachSlot(fn func(idx int, ln *Line)) {
	if lines := c.flat(); lines != nil {
		for i := range lines {
			fn(i, &lines[i])
		}
		return
	}
	var blank *Line
	w := int(c.ways)
	for set, slot := range c.slots {
		if slot == 0 {
			if blank == nil {
				blank = new(Line)
			}
			for i := 0; i < w; i++ {
				*blank = Line{}
				fn(set*w+i, blank)
			}
			continue
		}
		ways := c.setLines(slot)
		for i := range ways {
			fn(set*w+i, &ways[i])
		}
	}
}

// ForEach calls fn for every valid line. Iteration order is set-major and
// deterministic.
func (c *Cache) ForEach(fn func(*Line)) {
	if lines := c.flat(); lines != nil {
		for i := range lines {
			if lines[i].Valid() {
				fn(&lines[i])
			}
		}
		return
	}
	for _, slot := range c.slots {
		if slot == 0 {
			continue
		}
		ways := c.setLines(slot)
		for i := range ways {
			if ways[i].Valid() {
				fn(&ways[i])
			}
		}
	}
}

// OccupiedLines returns the number of valid lines.
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, chunk := range c.chunks {
		for i := range chunk {
			if chunk[i].Valid() {
				n++
			}
		}
	}
	return n
}
