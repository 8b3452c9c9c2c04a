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
	SetShuffleSeed(uint64)
	Pending() int
}

// driveRandom executes a randomized self-similar schedule on s and returns
// the execution order as "(cycle,id)" strings. The schedule is derived
// only from the rng seed and from the engine's execution order, so two
// engines with identical ordering semantics produce identical logs. Delays
// are biased toward 0/1/2 to stress the wheel's same-cycle FIFO lists; the
// class at or above wheelSize sends events through the heap even under
// FIFO ties, so heap and wheel events come due at the same cycle and the
// order popNext merges them in is checked.
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
				switch rng.Intn(9) {
				case 0, 1, 2:
					d = 0
				case 3, 4:
					d = 1
				case 5:
					d = 2
				case 6:
					d = Cycle(rng.Intn(10))
				case 7:
					d = Cycle(rng.Intn(200))
				default:
					d = wheelSize + Cycle(rng.Intn(300))
				}
				s.After(d, "kid", spawn(depth-1))
			}
		}
	}
	for i := 0; i < 12; i++ {
		s.At(Cycle(rng.Intn(30)), "root", spawn(4))
	}
	if stepped {
		// Drain in bounded Run calls, so every call resumes a schedule
		// another one left part-run.
		for s.Pending() > 0 {
			s.Run(7)
		}
	} else {
		s.Run(0)
	}
	return log
}

// TestEngineMatchesLegacyOrdering is the rewrite's equivalence proof:
// randomized (cycle, seq) schedules — including shuffle-seeded tie
// permutation and stepped Run driving — must execute in exactly
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

// TestRunTimeBackwardsGuard covers popNext's guard: a clock that would
// move backwards is a scheduler invariant violation and must panic rather
// than corrupt event order.
func TestRunTimeBackwardsGuard(t *testing.T) {
	e := NewEngine()
	e.At(10, "a", func() {})
	e.Run(0)
	// Corrupt the clock the only way external code could observe it: an
	// already-queued heap entry behind the clock.
	e.arena = append(e.arena, eventSlot{fn: runEvent, arg: Event(func() {})})
	e.heap = append(e.heap, heapEntry{at: 3, tie: 1, slot: int32(len(e.arena) - 1)})
	defer func() {
		if recover() == nil {
			t.Fatal("Run executed an event behind the clock without panicking")
		}
	}()
	e.Run(0)
}

// TestArenaRecycling proves the heap path reuses storage: a long
// self-rescheduling workload whose every event goes through the heap
// keeps reusing the one arena slot it needs.
func TestArenaRecycling(t *testing.T) {
	e := NewEngine()
	var fn Event
	n, heaped := 0, 0
	fn = func() {
		n++
		if n < 10000 {
			e.After(farDelays[n&7], "t", fn)
			heaped += len(e.heap) // 1 if that event went to the heap
		}
	}
	e.After(5, "t", fn)
	e.Run(0)
	if n != 10000 {
		t.Fatalf("ran %d events, want 10000", n)
	}
	if heaped != n-1 {
		t.Fatalf("%d of %d far-future events took the heap path", heaped, n-1)
	}
	if len(e.arena) > 1 {
		t.Fatalf("arena grew to %d slots for a 1-deep workload; free list not recycling", len(e.arena))
	}
}
