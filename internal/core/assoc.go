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
// their policies on top.
type assocStore struct {
	cfg     AssocConfig
	entries []Entry
	policy  cache.Policy
	mask    mem.Block

	// victimFn adapts the victim-selection predicates to the policy's
	// way-indexed callback. Bound once at construction and parameterized
	// through the fields below, so victim() allocates no closure per call.
	victimFn       func(way int) bool
	victimSet      int
	victimBusy     func(mem.Block) bool
	victimPrefOnly bool
	victimPrefer   func(*Entry) bool
}

func newAssocStore(cfg AssocConfig) (*assocStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, err := cache.NewPolicy(cfg.Policy, cfg.Sets, cfg.Ways, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &assocStore{
		cfg:     cfg,
		entries: make([]Entry, cfg.Sets*cfg.Ways),
		policy:  pol,
		mask:    mem.Block(cfg.Sets - 1),
	}
	for i := range s.entries {
		s.entries[i].set = int32(i / cfg.Ways)
		s.entries[i].way = int32(i % cfg.Ways)
	}
	s.victimFn = func(way int) bool {
		e := s.entry(s.victimSet, way)
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

// reset invalidates every entry, keeping each slot's (set, way)
// coordinates, and restarts the replacement policy.
func (s *assocStore) reset() {
	for i := range s.entries {
		e := &s.entries[i]
		*e = Entry{set: e.set, way: e.way}
	}
	s.policy.Reset()
}

func (s *assocStore) capacity() int { return s.cfg.Sets * s.cfg.Ways }

//stash:hotpath
func (s *assocStore) setIndex(b mem.Block) int {
	return int((b >> s.cfg.IndexShift) & s.mask)
}

//stash:hotpath
func (s *assocStore) entry(set, way int) *Entry {
	return &s.entries[set*s.cfg.Ways+way]
}

// find returns the valid entry for b, or nil.
//
//stash:hotpath
func (s *assocStore) find(b mem.Block) *Entry {
	set := s.setIndex(b)
	for w := 0; w < s.cfg.Ways; w++ {
		e := s.entry(set, w)
		if e.valid && e.Block == b {
			return e
		}
	}
	return nil
}

// touch marks e as most recently used.
//
//stash:hotpath
func (s *assocStore) touch(e *Entry) {
	s.policy.Touch(int(e.set), int(e.way))
}

// freeSlot returns an invalid entry in b's set, or nil.
//
//stash:hotpath
func (s *assocStore) freeSlot(b mem.Block) *Entry {
	set := s.setIndex(b)
	for w := 0; w < s.cfg.Ways; w++ {
		e := s.entry(set, w)
		if !e.valid {
			return e
		}
	}
	return nil
}

// install claims slot e for block b and marks it MRU. The slot must belong
// to b's set and be invalid.
//
//stash:hotpath
func (s *assocStore) install(e *Entry, b mem.Block) {
	if e.valid {
		panic("core: installing into a valid directory slot")
	}
	if int(e.set) != s.setIndex(b) {
		panic(fmt.Sprintf("core: installing block %#x into wrong directory set %d", uint64(b), e.set))
	}
	e.reset(b)
	s.policy.Insert(int(e.set), int(e.way))
}

// victim picks the replacement victim in b's set subject to two exclusion
// predicates: busy (hard: blocks with in-flight transactions) and prefer
// (soft: when preferOnly is true, only entries satisfying prefer are
// candidates). It returns nil when no candidate survives.
//
//stash:hotpath
func (s *assocStore) victim(b mem.Block, busy func(mem.Block) bool, preferOnly bool, prefer func(*Entry) bool) *Entry {
	set := s.setIndex(b)
	s.victimSet, s.victimBusy, s.victimPrefOnly, s.victimPrefer = set, busy, preferOnly, prefer
	w := s.policy.Victim(set, s.victimFn)
	s.victimBusy, s.victimPrefer = nil, nil
	if w < 0 {
		return nil
	}
	return s.entry(set, w)
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
	for i := range s.entries {
		if s.entries[i].valid {
			n++
		}
	}
	return n
}

func (s *assocStore) forEach(fn func(*Entry)) {
	for i := range s.entries {
		if s.entries[i].valid {
			fn(&s.entries[i])
		}
	}
}
