// Package cache implements the generic set-associative storage structure
// behind the private L1 caches and the shared LLC banks. It provides tag
// lookup, victim selection through pluggable replacement policies (LRU,
// tree-PLRU, NRU, random), and per-structure hit and miss accounting. The
// set-associative directory organizations in internal/core keep their
// entries in the same lazily filled store as a Cache's lines, a SetArena.
package cache

import (
	"fmt"

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
// Its lines live in a SetArena, so a set gets storage on its first fill
// and a job pays for the sets it touches rather than for the capacity it
// models. A set that was never filled holds nothing, so a lookup there
// misses without allocating. A one-set cache is filled at New.
//
//stash:tileowned
type Cache struct {
	sets SetArena[Line]

	stats Stats

	// victimFn adapts the caller's per-line skip predicate to the policy's
	// way-indexed one. It is bound on the first Victim call with a skip
	// predicate and parameterized through the two fields below, so Victim
	// allocates no closure per call, and a cache never asked to skip (every
	// cache of the model checker's root world) allocates none at all.
	victimFn   func(way int) bool
	victimSkip func(*Line) bool
	victimSlot int32

	shift uint8 // Config.IndexShift
}

// New returns an empty cache described by cfg.
func New(cfg Config) (*Cache, error) {
	sets, err := NewSetArena[Line](cfg.Sets, cfg.Ways, cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", cfg.Name, err)
	}
	return &Cache{sets: sets, shift: uint8(cfg.IndexShift)}, nil
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
	c.sets.Reset()
	c.stats = Stats{}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets.Sets() }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.sets.Ways() }

// Capacity returns the total number of lines.
func (c *Cache) Capacity() int { return c.sets.Sets() * c.sets.Ways() }

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
	return int((b >> c.shift) & mem.Block(len(c.sets.slots)-1))
}

// Lookup finds b and returns its line, recording a hit (and touching the
// replacement state) or a miss. It returns nil on a miss.
//
//stash:hotpath
func (c *Cache) Lookup(b mem.Block) *Line {
	if slot := c.sets.Slot(c.SetIndex(b)); slot != 0 {
		ways := c.sets.Set(slot)
		for w := range ways {
			if ln := &ways[w]; ln.Valid() && ln.Block == b {
				c.stats.Hits.Inc()
				c.sets.Touch(slot, w)
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
	if slot := c.sets.Slot(c.SetIndex(b)); slot != 0 {
		ways := c.sets.Set(slot)
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
	slot := c.sets.Slot(set)
	if slot == 0 {
		slot = c.sets.Fill(set)
	}
	ways := c.sets.Set(slot)
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
	w := c.sets.Victim(slot, excluded)
	c.victimSkip = nil
	if w < 0 {
		return nil
	}
	return &ways[w]
}

// bindVictimFn binds victimFn, once per cache.
func (c *Cache) bindVictimFn() {
	c.victimFn = func(way int) bool { return c.victimSkip(&c.sets.Set(c.victimSlot)[way]) }
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
	c.sets.Insert(slot, way)
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
	slot, way := c.wayOf(ln.Block, ln)
	c.sets.Touch(slot, way)
}

// wayOf returns the slot map entry of b's set and ln's way within it,
// panicking when ln is not one of that set's ways: a line of another set
// or of another cache is a caller bug.
//
//stash:hotpath
func (c *Cache) wayOf(b mem.Block, ln *Line) (slot int32, way int) {
	set := c.SetIndex(b)
	if s := c.sets.Slot(set); s != 0 {
		ways := c.sets.Set(s)
		for w := range ways {
			if &ways[w] == ln {
				return s, w
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
	if lines := c.sets.Flat(); lines != nil {
		for w := range lines {
			if &lines[w] == ln {
				return 0, w
			}
		}
		panic("cache: line not owned by this cache")
	}
	for set, slot := range c.sets.slots {
		if slot == 0 {
			continue
		}
		ways := c.sets.Set(slot)
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
	if lines := c.sets.Flat(); lines != nil {
		for i := range lines {
			fn(i, &lines[i])
		}
		return
	}
	var blank *Line
	w := c.Ways()
	for set, slot := range c.sets.slots {
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
		ways := c.sets.Set(slot)
		for i := range ways {
			fn(set*w+i, &ways[i])
		}
	}
}

// ForEach calls fn for every valid line. Iteration order is set-major and
// deterministic.
func (c *Cache) ForEach(fn func(*Line)) {
	if lines := c.sets.Flat(); lines != nil {
		for i := range lines {
			if lines[i].Valid() {
				fn(&lines[i])
			}
		}
		return
	}
	for _, slot := range c.sets.slots {
		if slot == 0 {
			continue
		}
		ways := c.sets.Set(slot)
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
	for _, chunk := range c.sets.chunks {
		for i := range chunk {
			if chunk[i].Valid() {
				n++
			}
		}
	}
	return n
}
