// Package psim is the deterministic parallel discrete-event engine: it
// advances many sim.EventQueue-backed shards concurrently under a
// conservative (lookahead-bounded) epoch protocol and still produces a
// bit-identical event order at every worker count.
//
// # Model
//
// The system is partitioned into logical processes (LPs) — in the CMP
// model, one LP per NoC tile — each owning a private *sim.Engine (its own
// timing wheel, heap, clock and insertion-sequence counter; see
// sim.EventQueue). During an epoch an LP may only schedule onto itself;
// everything that crosses LPs is deferred into a per-source Mailbox and
// merged by the single-threaded driver at the epoch barrier. Epochs are
// aligned windows [k·L, (k+1)·L) whose width L (the lookahead) must not
// exceed the minimum latency of any cross-LP interaction — for the NoC,
// the minimum cross-tile hop latency — so a message emitted during epoch k
// can never be due before epoch k+1 begins, and executing the epochs of
// different LPs concurrently is safe.
//
// # Determinism
//
// The engine realizes the fixed total order
//
//	(cycle, LP rank, LP-local sequence)
//
// independent of how LPs are grouped into worker shards:
//
//   - Within one LP, events fire in the LP's own (cycle, sequence) order —
//     a property of its private queue, untouched by parallelism.
//   - Across LPs, same-cycle events commute: they touch disjoint LP state,
//     and all cross-LP effects are mailbox appends that the driver replays
//     in the canonical (cycle, source rank, send order) order at the
//     barrier, on one thread. The shard layout therefore cannot leak into
//     any simulation-visible value.
//
// Note what this does *not* promise: the legacy serial engine's order is
// (cycle, global insertion sequence), a history-dependent interleaving of
// all components that no partitioned execution can reproduce in general.
// psim's order is a different, equally valid serial schedule — Shards=1
// executes it exactly, and every Shards=N run is bit-identical to that.
// DESIGN.md's "Parallel engine" section carries the full argument.
package psim

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrEventLimit is returned (wrapped) by Run when the event budget is
// exhausted before the queues drain.
var ErrEventLimit = errors.New("psim: event limit reached")

// Config parameterizes a parallel engine.
type Config struct {
	// Shards is the number of worker goroutines; LPs are split across them
	// in contiguous rank blocks. Must be in [1, len(lps)].
	Shards int
	// Lookahead is the epoch width L in cycles: the guaranteed minimum
	// delay of any cross-LP interaction. Must be >= 1.
	Lookahead sim.Cycle
	// MaxEvents, when nonzero, bounds the total events executed; Run
	// returns ErrEventLimit once an epoch ends past the budget.
	MaxEvents uint64
}

// Engine drives a set of per-LP event queues through conservative epochs.
type Engine struct {
	cfg Config
	lps []*sim.Engine

	workers     []worker
	start       barrier
	driverSense uint32
	stop        bool

	// Epoch window, written by the driver between barriers (the barrier's
	// happens-before edges publish them to the workers).
	epochEnd sim.Cycle

	// OnEpoch, when set, runs on the driver thread at each epoch barrier,
	// after the workers have drained the epoch and before the cross-LP
	// merge. start and end are the epoch window. Samplers hook here: the
	// barrier grid is part of the deterministic schedule, so observations
	// taken at it are shard-count-invariant too.
	OnEpoch func(start, end sim.Cycle)
}

// worker owns a contiguous block of LPs and steps them through one epoch
// at a time. next/has cache each LP's earliest event time so the inner
// loop's min scan does not re-query drained queues.
//
//stash:tileowned
type worker struct {
	eng     *Engine
	engines []*sim.Engine
	next    []sim.Cycle
	has     []bool
	sense   uint32
	steps   uint64
}

// New builds a parallel engine over the given LP queues. LP rank is the
// slice index; ranks are the cross-LP tie-break, so callers must use a
// stable, meaningful order (the CMP model uses NoC tile id).
func New(cfg Config, lps []*sim.Engine) (*Engine, error) {
	if len(lps) == 0 {
		return nil, fmt.Errorf("psim: no LPs")
	}
	if cfg.Shards < 1 || cfg.Shards > len(lps) {
		return nil, fmt.Errorf("psim: shards must be in [1,%d], got %d", len(lps), cfg.Shards)
	}
	if cfg.Lookahead < 1 {
		return nil, fmt.Errorf("psim: lookahead must be >= 1 cycle, got %d", cfg.Lookahead)
	}
	e := &Engine{cfg: cfg, lps: lps}
	e.workers = make([]worker, cfg.Shards)
	// Contiguous block partition: neighbors on the mesh tend to land in
	// the same shard, and the assignment is a pure function of (len(lps),
	// Shards) — though correctness never depends on the layout.
	per := (len(lps) + cfg.Shards - 1) / cfg.Shards
	for i := range e.workers {
		lo := i * per
		hi := lo + per
		if hi > len(lps) {
			hi = len(lps)
		}
		w := &e.workers[i]
		w.eng = e
		w.engines = lps[lo:hi]
		w.next = make([]sim.Cycle, len(w.engines))
		w.has = make([]bool, len(w.engines))
	}
	e.start.init(int32(cfg.Shards + 1)) // workers + driver
	return e, nil
}

// Pending returns the total events queued across all LPs. Only meaningful
// outside Run (the driver owns all queues between epochs).
func (e *Engine) Pending() int {
	n := 0
	for _, lp := range e.lps {
		n += lp.Pending()
	}
	return n
}

// EventsRun returns the total events executed across all LPs.
func (e *Engine) EventsRun() uint64 {
	var n uint64
	for _, lp := range e.lps {
		n += lp.EventsRun()
	}
	return n
}

// Cycles returns the furthest LP clock — the parallel analogue of the
// serial engine's final Now().
func (e *Engine) Cycles() sim.Cycle {
	var max sim.Cycle
	for _, lp := range e.lps {
		if t := lp.Now(); t > max {
			max = t
		}
	}
	return max
}

// Run executes epochs until every queue drains and merge produces no new
// work, the event budget runs out, or an LP's engine is stopped
// (sim.Engine.Stop): the driver checks that flag between epochs and then
// returns with events still queued. merge is called on the driver thread
// at each epoch boundary with all workers parked at the barrier; it must
// replay the epoch's cross-LP messages into the destination queues (in
// canonical order — see Drain) and may schedule at any cycle >= the epoch
// end. Worker goroutines live strictly inside this call: they are spawned
// on entry and joined before it returns, so a completed Run leaks nothing.
func (e *Engine) Run(merge func(epochEnd sim.Cycle)) (uint64, error) {
	e.stop = false
	for i := range e.workers {
		// Workers and driver rendezvous on a sense-reversing barrier twice
		// per epoch (epoch start, epoch end); between barriers each worker
		// touches only the LP queues it owns.
		//stash:parallel conservative PDES workers; joined before Run returns
		go e.workers[i].loop()
	}
	var total uint64
	err := e.drive(merge, &total)
	// Park-and-release one last time with stop set so every worker exits
	// its loop; the final barrier doubles as the join.
	e.stop = true
	e.start.await(&e.driverSense)
	return total, err
}

// drive is Run's epoch loop, split out so Run can unconditionally park
// and join the workers whether drive returns cleanly or on a budget
// error.
func (e *Engine) drive(merge func(epochEnd sim.Cycle), total *uint64) error {
	L := e.cfg.Lookahead
	for {
		minT, any := e.nextEvent()
		if !any {
			return nil
		}
		// Skip-ahead: jump straight to the epoch window containing the
		// earliest event. Windows stay aligned to the L grid, so the
		// barrier schedule — and anything observing it — is a pure
		// function of the event timeline, not of how many idle epochs a
		// particular implementation would have cycled through.
		start := minT - minT%L
		end := start + L
		e.epochEnd = end

		e.start.await(&e.driverSense) // release workers into the epoch
		e.start.await(&e.driverSense) // wait for them to drain it

		*total = 0
		for i := range e.workers {
			*total += e.workers[i].steps
		}
		if e.cfg.MaxEvents != 0 && *total >= e.cfg.MaxEvents {
			return fmt.Errorf("%w: %d events run, budget %d", ErrEventLimit, *total, e.cfg.MaxEvents)
		}
		if e.OnEpoch != nil {
			e.OnEpoch(start, end)
		}
		merge(end)
	}
}

// nextEvent returns the earliest pending cycle across all LPs, or false
// once every queue has drained or any LP's engine has been stopped.
func (e *Engine) nextEvent() (sim.Cycle, bool) {
	var min sim.Cycle
	any := false
	for _, lp := range e.lps {
		if lp.Stopped() {
			return 0, false
		}
		if t, ok := lp.NextEventTime(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// loop is a worker goroutine's life: epochs bracketed by barriers until
// the driver raises stop.
func (w *worker) loop() {
	for {
		w.eng.start.await(&w.sense)
		if w.eng.stop {
			return
		}
		w.runEpoch(w.eng.epochEnd)
		w.eng.start.await(&w.sense)
	}
}

// runEpoch drains every event strictly before end from the worker's LPs,
// always stepping the (cycle, rank)-minimal one. The next-event cache is
// refreshed once on entry — the merge may have scheduled onto any LP — and
// then maintained incrementally: during an epoch an LP's queue only
// changes when that LP itself runs.
//
//stash:hotpath
func (w *worker) runEpoch(end sim.Cycle) {
	for i, lp := range w.engines {
		w.next[i], w.has[i] = lp.NextEventTime()
	}
	for {
		best := -1
		var bt sim.Cycle
		for i := range w.engines {
			// Strict less keeps the earliest rank on cycle ties, matching
			// the canonical (cycle, LP rank) order.
			if w.has[i] && w.next[i] < end && (best < 0 || w.next[i] < bt) {
				best, bt = i, w.next[i]
			}
		}
		if best < 0 {
			return
		}
		lp := w.engines[best]
		lp.Step()
		w.steps++
		w.next[best], w.has[best] = lp.NextEventTime()
	}
}
