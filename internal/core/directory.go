// Package core implements the paper's primary contribution: directory
// organizations for many-core cache coherence, and in particular the Stash
// Directory — a sparse directory with a relaxed inclusion property that can
// silently drop ("stash") entries tracking private blocks instead of
// invalidating the cached copies.
//
// Four organizations are provided behind one Directory interface:
//
//   - FullMap: an unbounded ideal directory (no conflicts; upper bound and
//     correctness reference).
//   - Sparse: the conventional set-associative sparse directory; evicting an
//     entry requires recalling (back-invalidating) the tracked copies.
//   - Cuckoo: a d-ary cuckoo-hashed directory (Ferdman et al., HPCA 2011),
//     the strongest conventional baseline: it removes set conflicts but
//     still enforces strict inclusion.
//   - Stash: the paper's design. Entries tracking private blocks may be
//     evicted without invalidation; the protocol then relies on an LLC
//     "hidden" bit and discovery broadcasts to re-locate hidden copies.
//
// The organizations are pure lookup structures: all timing, messaging and
// hidden-bit bookkeeping live in internal/coherence. The split keeps every
// organization independently unit-testable.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/stats"
)

// MaxCores is the largest core count a directory entry can track. Sharer
// sets are full-map bit vectors packed in an array of uint64 words; four
// words cover the scaling study's 16-to-256-core range.
const MaxCores = 256

// sharerWords is the number of 64-bit words backing a SharerSet.
const sharerWords = MaxCores / 64

// SharerSet is a full-map sharer bit vector: bit i set means core i holds a
// copy. The zero value is the empty set.
//
//stash:tileowned
type SharerSet struct {
	w [sharerWords]uint64
}

// Add sets core's bit.
func (s *SharerSet) Add(core int) { s.w[uint(core)/64] |= 1 << (uint(core) % 64) }

// Remove clears core's bit.
func (s *SharerSet) Remove(core int) { s.w[uint(core)/64] &^= 1 << (uint(core) % 64) }

// Clear empties the set.
func (s *SharerSet) Clear() {
	for i := range s.w {
		s.w[i] = 0
	}
}

// Has reports whether core's bit is set.
func (s SharerSet) Has(core int) bool { return s.w[uint(core)/64]&(1<<(uint(core)%64)) != 0 }

// Count returns the number of sharers.
func (s SharerSet) Count() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no core is tracked.
func (s SharerSet) Empty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Only returns the single set core, or -1 if the set does not contain
// exactly one core.
func (s SharerSet) Only() int {
	if s.Count() != 1 {
		return -1
	}
	for i, w := range s.w {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ForEach calls fn for every sharer in ascending core order.
func (s SharerSet) ForEach(fn func(core int)) {
	for i, w := range s.w {
		for w != 0 {
			fn(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Entry is one directory entry: which cores hold block Block and whether a
// single core owns it exclusively (MESI E or M; the directory does not
// distinguish the two, as silent E→M upgrades are invisible to it).
//
//stash:tileowned
type Entry struct {
	Block   mem.Block
	Sharers SharerSet
	// Owned means the block was granted exclusively: exactly one sharer
	// holds it in E or M.
	Owned bool
	// Overflowed marks a limited-pointer entry whose sharer count exceeded
	// its pointer capacity (the Dir_P-B scheme): the sharer set is no
	// longer exact and invalidations must broadcast. Full-map entries
	// never overflow.
	Overflowed bool

	valid bool
	// slot bookkeeping for set-associative implementations
	set, way int32
}

// Valid reports whether the entry currently tracks a block.
func (e *Entry) Valid() bool { return e.valid }

// Slot returns the entry's (set, way) coordinates inside its organization's
// backing store (sub-table and slot for the cuckoo layout). Unbounded
// organizations return (0, 0). The model checker serializes entries with
// their coordinates because slot placement is machine state: it determines
// future victim choices and cuckoo relocation paths.
func (e *Entry) Slot() (set, way int) { return int(e.set), int(e.way) }

// Owner returns the owning core when the entry is in the owned state, or
// -1 otherwise.
func (e *Entry) Owner() int {
	if !e.Owned {
		return -1
	}
	return e.Sharers.Only()
}

// Private reports whether the entry tracks a private block in the paper's
// sense: cached by exactly one core. Owned entries are always private;
// single-sharer Shared entries are private too (the protocol decides,
// via configuration, whether those are stashable). Overflowed entries are
// never private: their sharer set is inexact.
func (e *Entry) Private() bool { return !e.Overflowed && e.Sharers.Count() == 1 }

// AddSharer records core as a sharer under a pointer-limited entry format:
// limit is the number of pointers the entry can hold (0 = full map). When
// the sharer count exceeds the limit the entry overflows and its set stops
// being exact.
func (e *Entry) AddSharer(core, limit int) {
	e.Sharers.Add(core)
	if limit > 0 && !e.Overflowed && e.Sharers.Count() > limit {
		e.Overflowed = true
	}
}

func (e *Entry) reset(b mem.Block) {
	e.Block = b
	e.Sharers.Clear()
	e.Owned = false
	e.Overflowed = false
	e.valid = true
}

func (e *Entry) String() string {
	if !e.valid {
		return "<invalid>"
	}
	kind := "S"
	if e.Owned {
		kind = "EM"
	}
	if e.Overflowed {
		kind += "+ovf"
	}
	return fmt.Sprintf("blk=%#x %s sharers=%064b%064b%064b%064b", uint64(e.Block), kind,
		e.Sharers.w[3], e.Sharers.w[2], e.Sharers.w[1], e.Sharers.w[0])
}

// AllocOutcome classifies the result of Directory.Allocate.
type AllocOutcome uint8

const (
	// AllocOK: a free slot was found (or the organization is unbounded);
	// Entry is installed for the block, valid and empty.
	AllocOK AllocOutcome = iota
	// AllocStashed: the Stash directory freed a slot by dropping an entry
	// that tracked a private block, without requiring invalidation. Entry
	// is installed; Stashed describes the dropped entry so the caller can
	// set the hidden bit on its LLC line. (Stash only.)
	AllocStashed
	// AllocNeedsRecall: the organization must evict Victim, and strict
	// inclusion requires the caller to invalidate (recall) the tracked
	// copies first. After the recall completes, call Remove(victim) and
	// retry Allocate.
	AllocNeedsRecall
	// AllocBlocked: every candidate slot is excluded by the caller's busy
	// predicate (in-flight transactions). Retry later.
	AllocBlocked
)

// String names the outcome.
func (o AllocOutcome) String() string {
	switch o {
	case AllocOK:
		return "ok"
	case AllocStashed:
		return "stashed"
	case AllocNeedsRecall:
		return "needs-recall"
	case AllocBlocked:
		return "blocked"
	}
	return fmt.Sprintf("AllocOutcome(%d)", uint8(o))
}

// Stashed describes an entry dropped by a stash eviction: the block whose
// cached copy is now hidden and the core that holds it.
type Stashed struct {
	Block mem.Block
	Owner int
}

// AllocResult carries the outcome of Allocate. Exactly one of Entry,
// Victim is meaningful depending on Outcome; Stashed accompanies
// AllocStashed.
type AllocResult struct {
	Outcome AllocOutcome
	Entry   *Entry  // AllocOK, AllocStashed
	Victim  *Entry  // AllocNeedsRecall: the entry to recall (still valid)
	Stashed Stashed // AllocStashed: the dropped private entry
}

// Directory is a coherence-directory organization. It tracks which private
// caches hold which blocks. Implementations are pure data structures with
// deterministic behavior; the protocol layer provides timing and performs
// the recalls/discoveries the organization demands.
type Directory interface {
	// Name identifies the organization ("fullmap", "sparse", "cuckoo",
	// "stash") for reports.
	Name() string
	// Capacity returns the number of entry slots, or 0 if unbounded.
	Capacity() int
	// Lookup finds the entry tracking b, recording a directory hit or
	// miss and updating replacement recency. It returns nil on a miss.
	Lookup(b mem.Block) *Entry
	// Probe finds the entry tracking b without touching statistics or
	// recency. For audits and assertions.
	Probe(b mem.Block) *Entry
	// Allocate installs (or prepares to install) an entry for b, which
	// must not already be tracked. busy, if non-nil, excludes victim
	// candidates with in-flight transactions. It must be a pure lookup:
	// an organization may call it any number of times, or not at all.
	Allocate(b mem.Block, busy func(mem.Block) bool) AllocResult
	// Remove frees the entry tracking b, if any.
	Remove(b mem.Block)
	// OccupiedEntries returns the number of valid entries.
	OccupiedEntries() int
	// ForEach visits every valid entry in a deterministic order.
	ForEach(fn func(*Entry))
	// Stats returns the organization's counters.
	Stats() *DirStats
}

// DirStats counts a directory organization's activity. Counters for events
// an organization never has (stash evictions outside the stash directory,
// relocations outside cuckoo) stay zero.
type DirStats struct {
	Lookups, Hits, Misses stats.Counter // Lookup outcomes; Probe counts none
	Allocations           stats.Counter
	Removals              stats.Counter
	RecallEvictions       stats.Counter // evictions requiring back-invalidation
	StashEvictions        stats.Counter // silent private-entry drops (stash only)
	AllocBlocked          stats.Counter // allocations deferred by busy transactions
	Relocations           stats.Counter // cuckoo path relocations
}
