package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
)

// AssocConfig describes a set-associative directory's geometry. Both the
// conventional Sparse directory and the Stash directory use it.
type AssocConfig struct {
	Sets int // power of two
	Ways int
	// IndexShift drops low block bits before set indexing, mirroring
	// cache.Config: directory slices are address-interleaved across banks
	// on the low block bits.
	IndexShift uint
	Policy     cache.PolicyKind
	Seed       int64
}

// Validate checks the geometry.
func (c AssocConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("core: directory sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways < 1 {
		return fmt.Errorf("core: directory ways must be >= 1, got %d", c.Ways)
	}
	return nil
}

// assocStore is the shared set-associative entry array with replacement
// state. It has no eviction semantics of its own; Sparse and Stash build
// their policies on top. Its entries live in a cache.SetArena, so a set
// gets its entries and replacement state on its first fill, a chunk of
// sets at a time; an entry never moves, since controllers hold *Entry
// across events. A one-set slice, such as every model checker directory,
// is filled at construction.
type assocStore struct {
	sets  cache.SetArena[Entry]
	shift uint8 // AssocConfig.IndexShift

	// victimFn adapts the victim-selection predicates to the policy's
	// way-indexed callback. Bound once at construction and parameterized
	// through the fields below, so victim() allocates no closure per call.
	victimFn       func(way int) bool
	victimWays     []Entry
	victimBusy     func(mem.Block) bool
	victimPrefOnly bool
	victimPrefer   func(*Entry) bool
}

func newAssocStore(cfg AssocConfig) (*assocStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets, err := cache.NewSetArena[Entry](cfg.Sets, cfg.Ways, cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &assocStore{sets: sets, shift: uint8(cfg.IndexShift)}
	s.stampAll()
	s.victimFn = func(way int) bool {
		e := &s.victimWays[way]
		if s.victimBusy != nil && s.victimBusy(e.Block) {
			return true
		}
		if s.victimPrefOnly && s.victimPrefer != nil && !s.victimPrefer(e) {
			return true
		}
		return false
	}
	return s, nil
}

// stamp writes a filled set's (set, way) coordinates into its entries.
func (s *assocStore) stamp(set int, slot int32) {
	ways := s.sets.Set(slot)
	for w := range ways {
		ways[w].set, ways[w].way = int32(set), int32(w)
	}
}

// stampAll stamps every filled set: a one-set slice's at construction,
// and every set after a reset zeroes the entries.
func (s *assocStore) stampAll() {
	for set := range s.sets.Sets() {
		if slot := s.sets.Slot(set); slot != 0 {
			s.stamp(set, slot)
		}
	}
}

// reset invalidates every entry, keeping each slot's (set, way)
// coordinates, and restarts the replacement policy.
func (s *assocStore) reset() {
	s.sets.Reset()
	s.stampAll()
}

func (s *assocStore) capacity() int { return s.sets.Sets() * s.sets.Ways() }

//stash:hotpath
func (s *assocStore) setIndex(b mem.Block) int {
	return int((b >> s.shift) & mem.Block(s.sets.Sets()-1))
}

// setOf returns the slot map entry and the entries of b's set, giving the
// set its entries on first use.
//
//stash:hotpath
func (s *assocStore) setOf(b mem.Block) (int32, []Entry) {
	set := s.setIndex(b)
	slot := s.sets.Slot(set)
	if slot == 0 {
		slot = s.sets.Fill(set)
		s.stamp(set, slot)
	}
	return slot, s.sets.Set(slot)
}

// find returns the valid entry for b, or nil.
//
//stash:hotpath
func (s *assocStore) find(b mem.Block) *Entry {
	slot := s.sets.Slot(s.setIndex(b))
	if slot == 0 {
		return nil
	}
	ways := s.sets.Set(slot)
	for w := range ways {
		if e := &ways[w]; e.valid && e.Block == b {
			return e
		}
	}
	return nil
}

// touch marks e as most recently used.
//
//stash:hotpath
func (s *assocStore) touch(e *Entry) {
	s.sets.Touch(s.sets.Slot(int(e.set)), int(e.way))
}

// freeWay returns an invalid entry among the ways of b's set, or nil when
// the set is full. It panics when b is already tracked.
//
//stash:hotpath
func freeWay(ways []Entry, b mem.Block) *Entry {
	var free *Entry
	for w := range ways {
		switch e := &ways[w]; {
		case e.valid && e.Block == b:
			panic("core: Allocate for already-tracked block")
		case !e.valid && free == nil:
			free = e
		}
	}
	return free
}

// install claims entry e of the set in slot, b's set, for block b and
// marks it MRU. The entry must be invalid.
//
//stash:hotpath
func (s *assocStore) install(slot int32, e *Entry, b mem.Block) {
	if e.valid {
		panic("core: installing into a valid directory slot")
	}
	e.reset(b)
	s.sets.Insert(slot, int(e.way))
}

// victim picks the replacement victim among the ways of the set in slot
// subject to two exclusion predicates: busy (hard: blocks with in-flight
// transactions) and prefer (soft: when preferOnly is true, only entries
// satisfying prefer are candidates). It returns nil when no candidate
// survives.
//
//stash:hotpath
func (s *assocStore) victim(slot int32, ways []Entry, busy func(mem.Block) bool, preferOnly bool, prefer func(*Entry) bool) *Entry {
	s.victimWays, s.victimBusy, s.victimPrefOnly, s.victimPrefer = ways, busy, preferOnly, prefer
	w := s.sets.Victim(slot, s.victimFn)
	s.victimWays, s.victimBusy, s.victimPrefer = nil, nil, nil
	if w < 0 {
		return nil
	}
	return &ways[w]
}

// remove invalidates the entry for b, if tracked.
//
//stash:hotpath
func (s *assocStore) remove(b mem.Block) bool {
	if e := s.find(b); e != nil {
		e.valid = false
		e.Sharers.Clear()
		e.Owned = false
		e.Overflowed = false
		return true
	}
	return false
}

func (s *assocStore) occupied() int {
	n := 0
	s.forEach(func(*Entry) { n++ })
	return n
}

// forEach calls fn for every valid entry, set-major.
func (s *assocStore) forEach(fn func(*Entry)) {
	if flat := s.sets.Flat(); flat != nil {
		for i := range flat {
			if flat[i].valid {
				fn(&flat[i])
			}
		}
		return
	}
	for set := range s.sets.Sets() {
		if slot := s.sets.Slot(set); slot != 0 {
			ways := s.sets.Set(slot)
			for w := range ways {
				if ways[w].valid {
					fn(&ways[w])
				}
			}
		}
	}
}
