package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/testutil/leakcheck"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	for _, at := range []Cycle{30, 10, 20, 10, 5} {
		at := at
		e.At(at, "t", func() { order = append(order, at) })
	}
	e.Run(0)
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events ran out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, "t", func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var hit Cycle
	e.At(100, "outer", func() {
		e.After(5, "inner", func() { hit = e.Now() })
	})
	e.Run(0)
	if hit != 105 {
		t.Fatalf("inner event at %d, want 105", hit)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, "late", func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("scheduling in the past did not panic")
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, `"past"`) {
				t.Errorf("panic %q does not name the event", msg)
			}
		}()
		e.At(5, "past", func() {})
	})
	e.Run(0)
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.At(Cycle(i), "t", func() { n++ })
	}
	ran := e.Run(4)
	if ran != 4 || n != 4 {
		t.Fatalf("ran %d events (callback saw %d), want 4", ran, n)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
	e.Run(0)
	if n != 10 {
		t.Fatalf("total = %d, want 10", n)
	}
}

// TestStop: Stop ends Run after the current event and leaves
// the rest queued. The flag is sticky and goroutine-safe, so a stop raised
// on another goroutine ends a run that would never drain, and a stop that
// lands before a run starts is not lost.
func TestStop(t *testing.T) {
	leakcheck.Check(t)
	e := NewEngine()
	n := 0
	e.At(1, "a", func() { n++; e.Stop() })
	e.At(2, "b", func() { n++ })
	e.Run(0)
	if n != 1 || e.Pending() != 1 {
		t.Fatalf("Stop did not end the run after the current event: n = %d, pending = %d", n, e.Pending())
	}
	if e.Run(0) != 0 || n != 1 {
		t.Fatalf("a later Run resumed a stopped engine; n = %d", n)
	}

	e = NewEngine()
	var tick Event
	tick = func() { e.After(1, "tick", tick) }
	e.After(1, "tick", tick)
	go e.Stop()
	e.Run(0)
	if !e.Stopped() || e.Pending() != 1 {
		t.Fatalf("stopped = %v, pending = %d after a stop from another goroutine", e.Stopped(), e.Pending())
	}

	e = NewEngine()
	e.At(1, "a", func() { t.Error("an event ran after a stop raised before the run") })
	e.Stop()
	if e.Run(0) != 0 {
		t.Fatal("a stop raised before the run was lost")
	}
}

func TestDeterminismUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []Cycle {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var log []Cycle
		var spawn func(depth int)
		spawn = func(depth int) {
			log = append(log, e.Now())
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				d := Cycle(rng.Intn(50))
				e.After(d, "x", func() { spawn(depth - 1) })
			}
		}
		e.At(0, "root", func() { spawn(4) })
		e.Run(0)
		return log
	}
	a := run(42)
	b := run(42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEventsRunCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Cycle(i), "t", func() {})
	}
	e.Run(0)
	if e.EventsRun() != 5 {
		t.Fatalf("EventsRun = %d, want 5", e.EventsRun())
	}
}

// TestFreshEngineBytes bounds the bytes a fresh engine allocates when it
// schedules and runs one event. Every machine build pays it, including
// each model-checker run's root world.
func TestFreshEngineBytes(t *testing.T) {
	const engines, limit = 200, 4 << 10
	fn := func() {}
	keep := make([]*Engine, engines) // engines escape, as they do in real use
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		e := NewEngine()
		e.After(1, "t", fn)
		e.Run(0)
		keep[i] = e
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / engines
	t.Logf("%d bytes per fresh engine (limit %d)", per, limit)
	if per > limit {
		t.Errorf("a fresh engine scheduling one event allocates %d bytes, want <= %d", per, limit)
	}
}

// TestEventSlotSize pins the arena slot at three words, fn plus arg's
// type and data: every pending event occupies one, so a wider slot
// widens every wheel and heap operation.
func TestEventSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(eventSlot{}); n != 24 {
		t.Fatalf("eventSlot is %d bytes, want 24", n)
	}
}

func TestShuffleSeedPermutesSameCycleEvents(t *testing.T) {
	order := func(seed uint64) []int {
		e := NewEngine()
		e.SetShuffleSeed(seed)
		var got []int
		for i := 0; i < 16; i++ {
			i := i
			e.At(5, "t", func() { got = append(got, i) })
		}
		e.Run(0)
		return got
	}
	fifo := order(0)
	for i, v := range fifo {
		if v != i {
			t.Fatalf("seed 0 must keep FIFO, got %v", fifo)
		}
	}
	a, b := order(1), order(2)
	sameAsFIFO := true
	for i := range a {
		if a[i] != i {
			sameAsFIFO = false
		}
	}
	if sameAsFIFO {
		t.Fatal("seed 1 did not permute same-cycle events")
	}
	diff := false
	for i := range a {
		if a[i] != b[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical permutations (suspicious)")
	}
	// Reproducible per seed.
	c := order(1)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed produced different permutations")
		}
	}
}

func TestShuffleSeedPreservesTimeOrder(t *testing.T) {
	e := NewEngine()
	e.SetShuffleSeed(7)
	var got []Cycle
	for _, at := range []Cycle{9, 3, 3, 7, 1, 9} {
		at := at
		e.At(at, "t", func() { got = append(got, at) })
	}
	e.Run(0)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time order violated: %v", got)
		}
	}
}

func TestShuffleSeedAfterSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(1, "t", func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetShuffleSeed with queued events did not panic")
		}
	}()
	e.SetShuffleSeed(3)
}
