package cache

import (
	"fmt"
	"math/rand"
)

// PolicyKind selects a replacement policy.
type PolicyKind uint8

// The supported replacement policies. LRU is the default everywhere; the
// directory-associativity sensitivity experiments also exercise the others.
const (
	LRU PolicyKind = iota
	TreePLRU
	NRU
	Random
)

// String returns the policy's canonical name.
func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "lru"
	case TreePLRU:
		return "plru"
	case NRU:
		return "nru"
	case Random:
		return "random"
	}
	return fmt.Sprintf("PolicyKind(%d)", uint8(k))
}

// ParsePolicy converts a canonical name back into a PolicyKind.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "lru":
		return LRU, nil
	case "plru":
		return TreePLRU, nil
	case "nru":
		return NRU, nil
	case "random":
		return Random, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// policy tracks recency state per set and chooses eviction victims. A
// SetArena indexes its per-set state by slot and grows it a chunk of sets
// at a time, as sets are first filled. Implementations are deterministic
// (Random uses a fixed seed).
type policy interface {
	// Touch marks (set, way) as just used.
	Touch(set, way int)
	// Insert marks (set, way) as just filled.
	Insert(set, way int)
	// Victim picks the way to evict in set, skipping ways for which
	// excluded returns true. It returns -1 if every way is excluded.
	Victim(set int, excluded func(way int) bool) int
	// Reset returns the policy to the state its constructor built, keeping
	// its storage: no way has been used, and a seeded policy restarts from
	// its construction seed.
	Reset()
	// grow appends state for n more sets, none of whose ways has been used.
	grow(n int)
}

func newPolicy(kind PolicyKind, sets, ways int, seed int64) (policy, error) {
	switch kind {
	case LRU:
		return newLRUPolicy(sets, ways), nil
	case TreePLRU:
		return newPLRUPolicy(sets, ways), nil
	case NRU:
		return newNRUPolicy(sets, ways), nil
	case Random:
		return newRandomPolicy(ways, seed), nil
	}
	return nil, fmt.Errorf("unknown replacement policy %v", kind)
}

// setState is a policy's per-set state, per elements per set, kept a
// chunk of sets at a time as a SetArena fills them. A chunk is never
// copied once allocated, so the state costs its own bytes; one flat slice
// would copy itself at every regrowth. While there is one chunk, chunks
// lives in first, so a one-set structure's state is one allocation.
//
//stash:tileowned
type setState[T any] struct {
	per    int
	chunks [][]T
	first  [1][]T
}

// init gives s state for sets sets, none of whose ways has been used. s
// must not be copied afterwards.
func (s *setState[T]) init(sets, per int) {
	s.per = per
	s.chunks = s.first[:0]
	for n := sets; n > 0; n -= chunkSets {
		s.grow(min(n, chunkSets))
	}
}

// grow appends a chunk for n more sets, at most chunkSets.
func (s *setState[T]) grow(n int) { s.chunks = append(s.chunks, make([]T, n*s.per)) }

// at returns way's state in set.
//
//stash:hotpath
func (s *setState[T]) at(set, way int) *T {
	return &s.chunks[set/chunkSets][set%chunkSets*s.per+way]
}

// of returns set's state.
//
//stash:hotpath
func (s *setState[T]) of(set int) []T {
	off := set % chunkSets * s.per
	return s.chunks[set/chunkSets][off : off+s.per]
}

func (s *setState[T]) reset() {
	for _, c := range s.chunks {
		clear(c)
	}
}

// lruPolicy keeps an exact recency order per set: a set's stamps hold a
// monotonically increasing use time per way; the victim is the smallest
// stamp among non-excluded ways.
//
//stash:tileowned
type lruPolicy struct {
	clock  uint64
	stamps setState[uint64]
}

func newLRUPolicy(sets, ways int) *lruPolicy {
	p := &lruPolicy{}
	p.stamps.init(sets, ways)
	return p
}

//stash:hotpath
func (p *lruPolicy) Touch(set, way int) {
	p.clock++
	*p.stamps.at(set, way) = p.clock
}

//stash:hotpath
func (p *lruPolicy) Insert(set, way int) { p.Touch(set, way) }

func (p *lruPolicy) Reset() {
	p.clock = 0
	p.stamps.reset()
}

func (p *lruPolicy) grow(n int) { p.stamps.grow(n) }

//stash:hotpath
func (p *lruPolicy) Victim(set int, excluded func(way int) bool) int {
	best := -1
	var bestStamp uint64
	for w, s := range p.stamps.of(set) {
		if excluded != nil && excluded(w) {
			continue
		}
		if best == -1 || s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// plruPolicy implements tree pseudo-LRU. Associativity is rounded up to a
// power of two internally; phantom ways are never returned because Victim
// falls back to scanning when the tree points at an out-of-range or
// excluded way.
//
//stash:tileowned
type plruPolicy struct {
	ways     int
	treeWays int // ways rounded up to a power of two
	bits     setState[bool]
}

func newPLRUPolicy(sets, ways int) *plruPolicy {
	tw := 1
	for tw < ways {
		tw <<= 1
	}
	p := &plruPolicy{ways: ways, treeWays: tw}
	p.bits.init(sets, tw-1)
	return p
}

// walk flips the tree bits along the path to way so the path points away
// from it.
//
//stash:hotpath
func (p *plruPolicy) walk(set, way int) {
	bits := p.bits.of(set)
	node := 0
	for span := p.treeWays / 2; span >= 1; span /= 2 {
		right := way%(span*2) >= span
		bits[node] = !right // point away from the touched half
		node = 2*node + 1
		if right {
			node++
		}
	}
}

//stash:hotpath
func (p *plruPolicy) Touch(set, way int) { p.walk(set, way) }

//stash:hotpath
func (p *plruPolicy) Insert(set, way int) { p.walk(set, way) }

func (p *plruPolicy) Reset() { p.bits.reset() }

func (p *plruPolicy) grow(n int) { p.bits.grow(n) }

//stash:hotpath
func (p *plruPolicy) Victim(set int, excluded func(way int) bool) int {
	bits := p.bits.of(set)
	node, way := 0, 0
	for span := p.treeWays / 2; span >= 1; span /= 2 {
		right := bits[node]
		node = 2*node + 1
		if right {
			node++
			way += span
		}
	}
	if way < p.ways && (excluded == nil || !excluded(way)) {
		return way
	}
	// The tree pointed at a phantom or excluded way: fall back to the first
	// usable way. This keeps the policy total without extra state.
	for w := 0; w < p.ways; w++ {
		if excluded == nil || !excluded(w) {
			return w
		}
	}
	return -1
}

// nruPolicy implements not-recently-used: one reference bit per way; the
// victim is the first way with a clear bit, and when all bits are set they
// are cleared (except the just-touched way's semantics are approximated by
// clearing all).
//
//stash:tileowned
type nruPolicy struct {
	bits setState[bool]
}

func newNRUPolicy(sets, ways int) *nruPolicy {
	p := &nruPolicy{}
	p.bits.init(sets, ways)
	return p
}

//stash:hotpath
func (p *nruPolicy) mark(set, way int) {
	bits := p.bits.of(set)
	bits[way] = true
	// If every bit in the set is now set, clear the others.
	for _, b := range bits {
		if !b {
			return
		}
	}
	for w := range bits {
		if w != way {
			bits[w] = false
		}
	}
}

//stash:hotpath
func (p *nruPolicy) Touch(set, way int) { p.mark(set, way) }

//stash:hotpath
func (p *nruPolicy) Insert(set, way int) { p.mark(set, way) }

func (p *nruPolicy) Reset() { p.bits.reset() }

func (p *nruPolicy) grow(n int) { p.bits.grow(n) }

//stash:hotpath
func (p *nruPolicy) Victim(set int, excluded func(way int) bool) int {
	fallback := -1
	for w, b := range p.bits.of(set) {
		if excluded != nil && excluded(w) {
			continue
		}
		if !b {
			return w
		}
		if fallback == -1 {
			fallback = w
		}
	}
	return fallback
}

// randomPolicy picks a uniformly random non-excluded way using a seeded
// generator, so runs remain reproducible. The generator (~5 KB of state)
// and Victim's scratch are made on the first Victim call, so a structure
// that never evicts, as most of a machine's do, pays for neither.
//
//stash:tileowned
type randomPolicy struct {
	ways int
	seed int64
	rng  *rand.Rand
	// scratch holds Victim's candidate list between calls; Victim runs once
	// per eviction, and reusing the buffer keeps it allocation-free.
	scratch []int
}

func newRandomPolicy(ways int, seed int64) *randomPolicy {
	return &randomPolicy{ways: ways, seed: seed}
}

// start makes the generator and the scratch on the first Victim call.
func (p *randomPolicy) start() {
	p.rng = rand.New(rand.NewSource(p.seed))
	p.scratch = make([]int, 0, p.ways)
}

//stash:hotpath
func (p *randomPolicy) Touch(set, way int) {}

//stash:hotpath
func (p *randomPolicy) Insert(set, way int) {}

// Reset re-seeds the generator, if one was made, so the victim sequence
// restarts.
func (p *randomPolicy) Reset() {
	if p.rng != nil {
		p.rng.Seed(p.seed)
	}
}

// grow has nothing to add: the random policy keeps no per-set state.
func (p *randomPolicy) grow(int) {}

//stash:hotpath
func (p *randomPolicy) Victim(set int, excluded func(way int) bool) int {
	if p.rng == nil {
		p.start()
	}
	candidates := p.scratch[:0]
	for w := 0; w < p.ways; w++ {
		if excluded == nil || !excluded(w) {
			candidates = append(candidates, w)
		}
	}
	p.scratch = candidates
	if len(candidates) == 0 {
		return -1
	}
	return candidates[p.rng.Intn(len(candidates))]
}
