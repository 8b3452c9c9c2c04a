// Package sim implements the deterministic discrete-event simulation engine
// that drives the CMP model. Components schedule callbacks at future cycles;
// the engine executes them in (cycle, insertion-order) order, so two runs of
// the same configuration produce bit-identical results.
//
// The serial engine is single-threaded: coherence-protocol debugging and
// reproducible experiments both depend on a total, stable event order. The
// scheduling core (EventQueue, in queue.go) is factored out of Engine so
// that internal/psim can run one queue per tile under a conservative epoch
// protocol; Engine embeds a queue and remains the serial façade.
//
// The scheduler is hand-specialized for the protocol's traffic shape and is
// allocation-free on the steady-state path:
//
//   - Every pending event is one 24-byte (fn, arg) slot in a single
//     free-listed arena; a slot is reused as soon as its event fires.
//   - Events due within the next wheelSize (256) cycles — every protocol
//     latency and virtually every NoC arrival — go to a hashed timing
//     wheel: one FIFO list per cycle, chained through the arena, and never
//     touch the heap. A 4-word occupancy bitmap finds the next non-empty
//     bucket with a couple of trailing-zero counts.
//   - Everything else goes to a flat 4-ary min-heap of 24-byte inline keys
//     (cycle, tie, slot index), so sift operations move small values.
//
// The arena and the heap recycle their storage, so after warm-up the
// engine performs zero allocations per event. The total execution order is
// bit-identical to the original container/heap implementation (the
// property tests in legacy_test.go replay randomized schedules through
// both): with FIFO tie-breaking, an event lands in the wheel only once
// `at - now < wheelSize`, so every wheel event due at cycle T was
// scheduled strictly after every heap event due at T (which needed
// `at - now >= wheelSize`, i.e. an earlier now and hence a smaller seq);
// draining the heap's same-cycle entries before the wheel bucket therefore
// preserves (cycle, seq) order exactly. When a shuffle seed permutes
// same-cycle ties, all events take the heap path, reproducing the original
// order for every seed.
package sim

import "sync/atomic"

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Engine owns an event queue and the simulated clock, and adds the run
// loop and event accounting on top of the embedded EventQueue (which
// contributes Now, Pending, At/After and their Arg forms, NextEventTime and
// SetShuffleSeed).
//
//stash:tileowned
type Engine struct {
	EventQueue

	ran     uint64
	stopped atomic.Bool
}

// NewEngine returns an engine at cycle 0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// EventsRun returns the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Reset returns the engine to what NewEngine built — cycle 0, no pending
// events, no events run, not stopped — keeping its shuffle seed and the
// storage its queue has grown. Pending events are dropped unrun.
func (e *Engine) Reset() {
	e.EventQueue.reset()
	e.ran = 0
	e.stopped.Store(false)
}

// Stop makes Run return after the current event, leaving any remaining
// events queued. It is safe to call from any goroutine, and it is sticky:
// a stop raised before or during a run ends every later Run call on this
// engine too.
func (e *Engine) Stop() { e.stopped.Store(true) }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped.Load() }

// Step pops the earliest pending event, advances the clock to it, and
// fires it. Precondition: at least one event is pending (Pending() > 0).
// It is the single-event granule the parallel engine's workers interleave
// across the queues they own; Run is equivalent to Step in a loop.
//
//stash:hotpath
func (e *Engine) Step() {
	ev := e.popNext()
	ev.fn(ev.arg)
	e.ran++
}

// Run executes events until the queue drains, limit events have run
// (limit 0 means no limit), or Stop is called. It returns the number of
// events executed by this call.
//
//stash:hotpath
func (e *Engine) Run(limit uint64) uint64 {
	var n uint64
	for e.Pending() > 0 && !e.stopped.Load() {
		if limit != 0 && n >= limit {
			break
		}
		ev := e.popNext()
		ev.fn(ev.arg)
		e.ran++
		n++
	}
	return n
}
