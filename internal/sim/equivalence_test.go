package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// scheduler is the API surface shared by the rewritten Engine and the
// original container/heap legacyEngine, so the equivalence tests can
// replay one schedule through both.
type scheduler interface {
	At(Cycle, string, Event)
	After(Cycle, string, Event)
	Now() Cycle
	Run(uint64) uint64
	RunUntil(Cycle) uint64
	SetShuffleSeed(uint64)
	Pending() int
}

// driveRandom executes a randomized self-similar schedule on s and returns
// the execution order as "(cycle,id)" strings. The schedule is derived
// only from the rng seed and from the engine's execution order, so two
// engines with identical ordering semantics produce identical logs. Delays
// are biased toward 0/1/2 to stress the ring fast path and its merge with
// the heap.
func driveRandom(s scheduler, seed int64, shuffle uint64, stepped bool) []string {
	rng := rand.New(rand.NewSource(seed))
	s.SetShuffleSeed(shuffle)
	var log []string
	id := 0
	var spawn func(depth int) Event
	spawn = func(depth int) Event {
		myID := id
		id++
		return func() {
			log = append(log, fmt.Sprintf("(%d,%d)", s.Now(), myID))
			if depth == 0 {
				return
			}
			kids := rng.Intn(4)
			for i := 0; i < kids; i++ {
				var d Cycle
				switch rng.Intn(8) {
				case 0, 1, 2:
					d = 0
				case 3, 4:
					d = 1
				case 5:
					d = 2
				case 6:
					d = Cycle(rng.Intn(10))
				default:
					d = Cycle(rng.Intn(200))
				}
				s.After(d, "kid", spawn(depth-1))
			}
		}
	}
	for i := 0; i < 12; i++ {
		s.At(Cycle(rng.Intn(30)), "root", spawn(4))
	}
	if stepped {
		// Alternate bounded Run and RunUntil calls to cover the stepping
		// entry points, then drain.
		for end := Cycle(25); s.Pending() > 0; end += 40 {
			s.RunUntil(end)
			s.Run(7)
		}
	} else {
		s.Run(0)
	}
	return log
}

// TestEngineMatchesLegacyOrdering is the rewrite's equivalence proof:
// randomized (cycle, seq) schedules — including shuffle-seeded tie
// permutation and stepped Run/RunUntil driving — must execute in exactly
// the same total order on the flat 4-ary engine as on the original
// container/heap implementation.
func TestEngineMatchesLegacyOrdering(t *testing.T) {
	shuffles := []uint64{0, 1, 7, 0xdeadbeef}
	for trial := int64(0); trial < 25; trial++ {
		for _, shuffle := range shuffles {
			for _, stepped := range []bool{false, true} {
				got := driveRandom(NewEngine(), trial, shuffle, stepped)
				want := driveRandom(newLegacyEngine(), trial, shuffle, stepped)
				if len(got) != len(want) {
					t.Fatalf("trial %d shuffle %d stepped %v: ran %d events, legacy ran %d",
						trial, shuffle, stepped, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d shuffle %d stepped %v: order diverged at event %d: %s vs legacy %s",
							trial, shuffle, stepped, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRunUntilTimeBackwardsGuard covers the guard RunUntil shares with
// Run: a clock that would move backwards is a scheduler invariant
// violation and must panic rather than corrupt event order.
func TestRunUntilTimeBackwardsGuard(t *testing.T) {
	e := NewEngine()
	e.At(10, "a", func() {})
	e.RunUntil(20)
	// Corrupt the clock the only way external code could observe it: an
	// already-queued heap entry behind the clock.
	e.arena = append(e.arena, eventSlot{run: func() {}})
	e.heap = append(e.heap, heapEntry{at: 3, tie: 1, slot: int32(len(e.arena) - 1)})
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil executed an event behind the clock without panicking")
		}
	}()
	e.RunUntil(100)
}

// TestArenaRecycling proves the steady-state path reuses storage: after
// warm-up, a long self-rescheduling workload keeps the arena and free
// list bounded.
func TestArenaRecycling(t *testing.T) {
	e := NewEngine()
	var fn Event
	n := 0
	fn = func() {
		n++
		if n < 10000 {
			e.After(farDelays[n&7], "t", fn)
		}
	}
	e.After(5, "t", fn)
	e.Run(0)
	if n != 10000 {
		t.Fatalf("ran %d events, want 10000", n)
	}
	if len(e.arena) > 64 {
		t.Fatalf("arena grew to %d slots for a 1-deep workload; free list not recycling", len(e.arena))
	}
}
