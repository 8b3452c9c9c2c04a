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
//stash:tileowned
type Cache struct {
	cfg    Config
	lines  []Line // sets*ways, set-major
	policy Policy
	mask   mem.Block

	stats Stats

	// victimFn adapts the caller's per-line skip predicate to the policy's
	// way-indexed one. It is bound once here and parameterized through the
	// two fields below, so Victim allocates no closure per call.
	victimFn   func(way int) bool
	victimSkip func(*Line) bool
	victimSet  int
}

// New returns an empty cache described by cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: sets must be a positive power of two, got %d", cfg.Name, cfg.Sets)
	}
	if cfg.Ways < 1 {
		return nil, fmt.Errorf("cache %s: ways must be >= 1, got %d", cfg.Name, cfg.Ways)
	}
	pol, err := newPolicy(cfg.Policy, cfg.Sets, cfg.Ways, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", cfg.Name, err)
	}
	c := &Cache{
		cfg:    cfg,
		lines:  make([]Line, cfg.Sets*cfg.Ways),
		policy: pol,
		mask:   mem.Block(cfg.Sets - 1),
	}
	c.victimFn = func(way int) bool {
		return c.victimSkip != nil && c.victimSkip(c.line(c.victimSet, way))
	}
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

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.cfg.Sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Capacity returns the total number of lines.
func (c *Cache) Capacity() int { return c.cfg.Sets * c.cfg.Ways }

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
	return int((b >> c.cfg.IndexShift) & c.mask)
}

//stash:hotpath
func (c *Cache) line(set, way int) *Line {
	return &c.lines[set*c.cfg.Ways+way]
}

// Lookup finds b and returns its line, recording a hit (and touching the
// replacement state) or a miss. It returns nil on a miss.
//
//stash:hotpath
func (c *Cache) Lookup(b mem.Block) *Line {
	set := c.SetIndex(b)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.line(set, w)
		if ln.Valid() && ln.Block == b {
			c.stats.Hits.Inc()
			c.policy.Touch(set, w)
			return ln
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
	set := c.SetIndex(b)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.line(set, w)
		if ln.Valid() && ln.Block == b {
			return ln
		}
	}
	return nil
}

// Victim selects a line of b's set to replace, preferring invalid lines.
// The skip predicate (optional) excludes lines the caller cannot use right
// now; it is applied to invalid lines too (callers that reserve ways for
// in-flight fills must skip them), so predicates that inspect Line.Block
// must check Valid first — an invalid line's Block is stale. Victim
// returns nil if every way is excluded.
//
//stash:hotpath
func (c *Cache) Victim(b mem.Block, skip func(*Line) bool) *Line {
	set := c.SetIndex(b)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.line(set, w)
		if !ln.Valid() && (skip == nil || !skip(ln)) {
			return ln
		}
	}
	c.victimSkip, c.victimSet = skip, set
	w := c.policy.Victim(set, c.victimFn)
	c.victimSkip = nil
	if w < 0 {
		return nil
	}
	return c.line(set, w)
}

// Install writes block b into the given line of b's set (obtained from
// Victim or Probe), marking it most-recently-used. The line must be a way
// of b's set in this cache; anything else panics. If the line was valid,
// the previous occupant is counted as an eviction; the caller is
// responsible for having handled its coherence obligations first.
//
//stash:hotpath
func (c *Cache) Install(ln *Line, b mem.Block, state mem.State, data uint64) {
	set := c.SetIndex(b)
	way := c.wayOf(set, ln)
	if ln.Valid() {
		c.stats.Evictions.Inc()
	}
	ln.Block = b
	ln.State = state
	ln.Data = data
	ln.Flags = 0
	c.stats.Installs.Inc()
	c.policy.Insert(set, way)
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
	set := c.SetIndex(ln.Block)
	c.policy.Touch(set, c.wayOf(set, ln))
}

// wayOf returns ln's way within set, panicking when ln is not one of that
// set's ways: a line of another set or of another cache is a caller bug.
//
//stash:hotpath
func (c *Cache) wayOf(set int, ln *Line) int {
	ways := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	for w := range ways {
		if &ways[w] == ln {
			return w
		}
	}
	panic(fmt.Sprintf("cache %s: line is not a way of set %d", c.cfg.Name, set))
}

// Locate maps a *Line owned by this cache, valid or not, back to its
// (set, way) coordinates, and panics on any other line. The model checker
// uses it to serialize controller state canonically: TBEs hold raw line
// pointers, and (set, way) is the stable name a pointer corresponds to. It
// scans the whole array, which suits the checker's one-set caches; the
// simulation's paths never call it.
func (c *Cache) Locate(ln *Line) (set, way int) {
	for i := range c.lines {
		if &c.lines[i] == ln {
			return i / c.cfg.Ways, i % c.cfg.Ways
		}
	}
	panic(fmt.Sprintf("cache %s: line not owned by this cache", c.cfg.Name))
}

// ForEachSlot calls fn for every line — valid or not — in set-major slot
// order, passing the flat slot index (set*Ways + way). Unlike ForEach it
// exposes empty ways, so a caller can serialize the complete tag-array
// layout (which ways are free matters to victim selection).
func (c *Cache) ForEachSlot(fn func(idx int, ln *Line)) {
	for i := range c.lines {
		fn(i, &c.lines[i])
	}
}

// ForEach calls fn for every valid line. Iteration order is set-major and
// deterministic.
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid() {
			fn(&c.lines[i])
		}
	}
}

// OccupiedLines returns the number of valid lines.
func (c *Cache) OccupiedLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid() {
			n++
		}
	}
	return n
}
