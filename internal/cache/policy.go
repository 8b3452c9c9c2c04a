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

// Policy tracks recency state per set and chooses eviction victims.
// Implementations are deterministic (Random uses a fixed seed).
type Policy interface {
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
}

// slotPolicy is a Policy whose per-set state a Cache indexes by slot and
// grows a chunk of sets at a time, as sets are first filled.
type slotPolicy interface {
	Policy
	// grow appends state for n more sets, none of whose ways has been used.
	grow(n int)
}

// NewPolicy builds a standalone replacement policy instance for callers
// that manage their own tag storage (the directory organizations in
// internal/core reuse the policies this way).
func NewPolicy(kind PolicyKind, sets, ways int, seed int64) (Policy, error) {
	return newPolicy(kind, sets, ways, seed)
}

func newPolicy(kind PolicyKind, sets, ways int, seed int64) (slotPolicy, error) {
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

// lruPolicy keeps an exact recency order per set: stamps[set*ways+way]
// holds a monotonically increasing use time; the victim is the smallest
// stamp among non-excluded ways.
//
//stash:tileowned
type lruPolicy struct {
	ways   int
	clock  uint64
	stamps []uint64
}

func newLRUPolicy(sets, ways int) *lruPolicy {
	return &lruPolicy{ways: ways, stamps: make([]uint64, sets*ways)}
}

//stash:hotpath
func (p *lruPolicy) Touch(set, way int) {
	p.clock++
	p.stamps[set*p.ways+way] = p.clock
}

//stash:hotpath
func (p *lruPolicy) Insert(set, way int) { p.Touch(set, way) }

func (p *lruPolicy) Reset() {
	p.clock = 0
	clear(p.stamps)
}

func (p *lruPolicy) grow(n int) { p.stamps = append(p.stamps, make([]uint64, n*p.ways)...) }

//stash:hotpath
func (p *lruPolicy) Victim(set int, excluded func(way int) bool) int {
	best := -1
	var bestStamp uint64
	for w := 0; w < p.ways; w++ {
		if excluded != nil && excluded(w) {
			continue
		}
		s := p.stamps[set*p.ways+w]
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
	bits     []bool
}

func newPLRUPolicy(sets, ways int) *plruPolicy {
	tw := 1
	for tw < ways {
		tw <<= 1
	}
	return &plruPolicy{ways: ways, treeWays: tw, bits: make([]bool, sets*(tw-1))}
}

// walk flips the tree bits along the path to way so the path points away
// from it.
//
//stash:hotpath
func (p *plruPolicy) walk(set, way int) {
	base := set * (p.treeWays - 1)
	node := 0
	for span := p.treeWays / 2; span >= 1; span /= 2 {
		right := way%(span*2) >= span
		p.bits[base+node] = !right // point away from the touched half
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

func (p *plruPolicy) Reset() { clear(p.bits) }

func (p *plruPolicy) grow(n int) { p.bits = append(p.bits, make([]bool, n*(p.treeWays-1))...) }

//stash:hotpath
func (p *plruPolicy) Victim(set int, excluded func(way int) bool) int {
	base := set * (p.treeWays - 1)
	node, way := 0, 0
	for span := p.treeWays / 2; span >= 1; span /= 2 {
		right := p.bits[base+node]
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
	ways int
	bits []bool
}

func newNRUPolicy(sets, ways int) *nruPolicy {
	return &nruPolicy{ways: ways, bits: make([]bool, sets*ways)}
}

//stash:hotpath
func (p *nruPolicy) mark(set, way int) {
	p.bits[set*p.ways+way] = true
	// If every bit in the set is now set, clear the others.
	for w := 0; w < p.ways; w++ {
		if !p.bits[set*p.ways+w] {
			return
		}
	}
	for w := 0; w < p.ways; w++ {
		if w != way {
			p.bits[set*p.ways+w] = false
		}
	}
}

//stash:hotpath
func (p *nruPolicy) Touch(set, way int) { p.mark(set, way) }

//stash:hotpath
func (p *nruPolicy) Insert(set, way int) { p.mark(set, way) }

func (p *nruPolicy) Reset() { clear(p.bits) }

func (p *nruPolicy) grow(n int) { p.bits = append(p.bits, make([]bool, n*p.ways)...) }

//stash:hotpath
func (p *nruPolicy) Victim(set int, excluded func(way int) bool) int {
	fallback := -1
	for w := 0; w < p.ways; w++ {
		if excluded != nil && excluded(w) {
			continue
		}
		if !p.bits[set*p.ways+w] {
			return w
		}
		if fallback == -1 {
			fallback = w
		}
	}
	return fallback
}

// randomPolicy picks a uniformly random non-excluded way using a seeded
// generator, so runs remain reproducible.
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
	return &randomPolicy{
		ways:    ways,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		scratch: make([]int, 0, ways),
	}
}

//stash:hotpath
func (p *randomPolicy) Touch(set, way int) {}

//stash:hotpath
func (p *randomPolicy) Insert(set, way int) {}

// Reset re-seeds the generator, so the victim sequence restarts.
func (p *randomPolicy) Reset() { p.rng.Seed(p.seed) }

// grow has nothing to add: the random policy keeps no per-set state.
func (p *randomPolicy) grow(int) {}

//stash:hotpath
func (p *randomPolicy) Victim(set int, excluded func(way int) bool) int {
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
