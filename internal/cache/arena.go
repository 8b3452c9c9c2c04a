package cache

import (
	"fmt"
	"math"
)

// SetArena stores the ways of a set-associative structure together with
// their replacement state, and gives a set storage on its first fill, so a
// job pays for the sets it touches rather than for the capacity it
// models. A slot map sends each set to its slot in an arena of chunks of
// ways, and the replacement policy's per-set state is indexed by slot and
// grows a chunk at a time. A chunk holds chunkSets sets, or all of them in
// a smaller arena. A chunk never moves once allocated, because callers
// hold pointers to ways across events. A one-set arena, such as every
// cache and directory slice of the model checker, is filled when it is
// made.
//
// A Cache keeps its lines in one, and the set-associative directories of
// internal/core keep their entries in one.
//
//stash:tileowned
type SetArena[T any] struct {
	// slots maps a set to 1 + its slot, or to 0 while the set was never
	// filled. Every one-set arena shares oneSet.
	slots []int32
	// chunks holds the ways: chunk k holds those of slots k*chunkSets up to
	// (k+1)*chunkSets, slot-major.
	chunks [][]T
	policy policy
	ways   int32
	used   int32 // slots handed out
}

// chunkSets is how many sets one chunk of an arena holds.
const chunkSets = 16

// oneSet is the slot map of a one-set arena, filled when it is made. Its
// entry is not 0, so it is never written and every such arena shares it.
var oneSet = [1]int32{1}

// NewSetArena returns an arena of sets × ways zero-valued ways under the
// given replacement policy; seed is used by the random policy only.
func NewSetArena[T any](sets, ways int, kind PolicyKind, seed int64) (SetArena[T], error) {
	if sets <= 0 || sets&(sets-1) != 0 || sets > math.MaxInt32 {
		return SetArena[T]{}, fmt.Errorf("sets must be a positive power of two below 2^31, got %d", sets)
	}
	if ways < 1 || ways > math.MaxInt32 {
		return SetArena[T]{}, fmt.Errorf("ways must be in [1, 2^31), got %d", ways)
	}
	a := SetArena[T]{ways: int32(ways)}
	filled := 0
	if sets == 1 {
		filled = 1
		a.slots = oneSet[:]
		a.chunks = [][]T{make([]T, ways)}
		a.used = 1
	} else {
		a.slots = make([]int32, sets)
	}
	pol, err := newPolicy(kind, filled, ways, seed)
	if err != nil {
		return SetArena[T]{}, err
	}
	a.policy = pol
	return a, nil
}

// Sets returns the number of sets.
func (a *SetArena[T]) Sets() int { return len(a.slots) }

// Ways returns the associativity.
func (a *SetArena[T]) Ways() int { return int(a.ways) }

// Slot returns set's slot map entry: 1 + the set's slot, or 0 while the
// set was never filled.
//
//stash:hotpath
func (a *SetArena[T]) Slot(set int) int32 { return a.slots[set] }

// Set returns the ways of the set whose slot map entry is slot, which must
// not be 0.
//
//stash:hotpath
func (a *SetArena[T]) Set(slot int32) []T {
	i, w := uint(slot-1), uint(a.ways)
	off := i % chunkSets * w
	return a.chunks[i/chunkSets][off : off+w]
}

// Fill gives a never-filled set the next slot, allocating a chunk of ways
// and the policy's state for it when the slot starts one, and returns the
// set's new slot map entry.
func (a *SetArena[T]) Fill(set int) int32 {
	if a.used%chunkSets == 0 {
		n := min(chunkSets, len(a.slots))
		a.chunks = append(a.chunks, make([]T, n*int(a.ways)))
		a.policy.grow(n)
	}
	a.used++
	a.slots[set] = a.used
	return a.used
}

// Flat returns the ways of a one-set arena, or nil for any other. Walks
// take it to skip the slot map on the model checker's one-set caches and
// directory slices, which its encoder walks once per explored state.
func (a *SetArena[T]) Flat() []T {
	if len(a.slots) != 1 {
		return nil
	}
	return a.chunks[0]
}

// Touch marks a way of the set in slot as just used.
//
//stash:hotpath
func (a *SetArena[T]) Touch(slot int32, way int) { a.policy.Touch(int(slot-1), way) }

// Insert marks a way of the set in slot as just filled.
//
//stash:hotpath
func (a *SetArena[T]) Insert(slot int32, way int) { a.policy.Insert(int(slot-1), way) }

// Victim picks the way of the set in slot to replace, skipping ways for
// which excluded returns true, or returns -1 when every way is excluded.
//
//stash:hotpath
func (a *SetArena[T]) Victim(slot int32, excluded func(way int) bool) int {
	return a.policy.Victim(int(slot-1), excluded)
}

// Reset zeroes every way and restarts the replacement policy. The filled
// chunks are kept, and each filled set keeps its slot.
func (a *SetArena[T]) Reset() {
	for _, chunk := range a.chunks {
		clear(chunk)
	}
	a.policy.Reset()
}
