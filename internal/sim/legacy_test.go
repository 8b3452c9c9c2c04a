package sim

import (
	"container/heap"
	"fmt"
)

// legacyEngine is the original container/heap event queue, kept verbatim
// as the reference implementation: the property tests replay identical
// schedules through it and the rewritten Engine and require identical
// execution orders, and the BenchmarkEngineLegacy* benchmarks measure the
// baseline the rewrite is compared against in DESIGN.md.
type legacyEngine struct {
	now     Cycle
	seq     uint64
	queue   legacyQueue
	ran     uint64
	Trace   func(at Cycle, name string)
	halted  bool
	shuffle uint64
}

type legacyQueued struct {
	at   Cycle
	seq  uint64
	tie  uint64
	run  Event
	name string
}

type legacyQueue []*legacyQueued

func (q legacyQueue) Len() int { return len(q) }
func (q legacyQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].tie < q[j].tie
}
func (q legacyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *legacyQueue) Push(x any)   { *q = append(*q, x.(*legacyQueued)) }
func (q *legacyQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func newLegacyEngine() *legacyEngine { return &legacyEngine{} }

func (e *legacyEngine) SetShuffleSeed(seed uint64) {
	if len(e.queue) != 0 {
		panic("sim: SetShuffleSeed with events already queued")
	}
	e.shuffle = seed
}

func (e *legacyEngine) Now() Cycle        { return e.now }
func (e *legacyEngine) EventsRun() uint64 { return e.ran }
func (e *legacyEngine) Pending() int      { return len(e.queue) }
func (e *legacyEngine) Halt()             { e.halted = true }

func (e *legacyEngine) At(at Cycle, name string, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at cycle %d, before now (%d)", name, at, e.now))
	}
	e.seq++
	tie := e.seq
	if e.shuffle != 0 {
		tie = mix64(e.seq ^ e.shuffle)
	}
	heap.Push(&e.queue, &legacyQueued{at: at, seq: e.seq, tie: tie, run: fn, name: name})
}

func (e *legacyEngine) After(delay Cycle, name string, fn Event) {
	e.At(e.now+delay, name, fn)
}

func (e *legacyEngine) Run(limit uint64) uint64 {
	var n uint64
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		if limit != 0 && n >= limit {
			break
		}
		ev := heap.Pop(&e.queue).(*legacyQueued)
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		if e.Trace != nil {
			e.Trace(e.now, ev.name)
		}
		ev.run()
		e.ran++
		n++
	}
	return n
}
