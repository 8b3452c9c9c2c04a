package sim

import (
	"fmt"
	"math/bits"
)

// eventSlot is one scheduled event in the arena the wheel and the heap
// share: fn(arg) runs when the event fires. AtArg/AfterArg store their
// pair as given, which lets callers reuse one long-lived func value and
// avoid allocating a fresh closure per event; a plain Event is stored as
// (runEvent, ev), and since a func value is pointer-shaped, boxing it into
// arg allocates nothing.
type eventSlot struct {
	fn  func(any)
	arg any
}

func runEvent(a any) { a.(Event)() }

// heapEntry is one 4-ary-heap key: the ordering fields plus the index of
// the payload in the arena.
type heapEntry struct {
	at   Cycle
	tie  uint64 // FIFO seq, or a keyed hash when shuffle-fuzzing
	slot int32
}

func (a heapEntry) less(b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.tie < b.tie)
}

// Timing-wheel geometry: one FIFO bucket per cycle for the next wheelSize
// cycles. Must be a power of two, and large enough to cover the protocol's
// fixed latencies (memory reads at 160 cycles are the longest) so that the
// heap only sees the rare congestion-delayed NoC arrival.
const (
	wheelSize  = 256
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// EventQueue is the scheduling core an Engine is built on: a per-shard
// clock plus the wheel-and-heap priority queue. It was extracted from
// Engine so the parallel engine (internal/psim) can give every shard its
// own timing wheel while Engine remains the serial façade; Engine embeds
// one, so all queue methods appear on Engine unchanged.
//
// Every pending event occupies one slot of a single arena. A wheel bucket
// is a FIFO list of slots chained through next; the heap orders keys that
// index slots. Both return vacated slots to one LIFO free list, so the
// slot an event vacates is the next one filled, while it is still in
// cache.
//
// Ordering contract: events fire in (cycle, sequence) order, where the
// sequence is this queue's own insertion counter — a local property that
// does not depend on any other queue's history. That locality is what lets
// psim run one EventQueue per tile and still define a total event order
// (cycle, tile, sequence) that is independent of how tiles are grouped
// into worker shards.
//
//stash:tileowned
type EventQueue struct {
	now     Cycle
	seq     uint64
	shuffle uint64

	// 4-ary min-heap of far-future events, keyed into the arena.
	heap []heapEntry

	// arena holds every pending event's payload; next[i] links slot i to
	// the following slot of its wheel bucket, and free stacks the slots
	// not in use.
	arena []eventSlot
	next  []int32
	free  []int32

	// Timing wheel of near-future events (FIFO ties only): bucket
	// t & wheelMask lists the events due at cycle t for t - now <
	// wheelSize, from wheelHead to wheelTail. wheelOcc is the per-bucket
	// occupancy bitmap; an empty bucket's head and tail are stale.
	wheelHead  [wheelSize]int32
	wheelTail  [wheelSize]int32
	wheelOcc   [wheelWords]uint64
	wheelCount int
}

// SetShuffleSeed switches same-cycle tie-breaking from FIFO to a
// deterministic pseudo-random permutation keyed by seed (0 restores FIFO).
// Component models must not depend on the accidental ordering of unrelated
// events within one cycle; the protocol fuzz tests sweep seeds through this
// knob to prove it. It must be set before any events are scheduled.
func (q *EventQueue) SetShuffleSeed(seed uint64) {
	if q.Pending() != 0 {
		panic("sim: SetShuffleSeed with events already queued")
	}
	q.shuffle = seed
}

// reset empties the queue and rewinds its clock and sequence counter,
// keeping the shuffle seed and the arena's and the heap's storage. Slot
// indices carry no ordering, so refilling the arena from the start orders
// events exactly as a fresh queue would.
func (q *EventQueue) reset() {
	q.now, q.seq = 0, 0
	q.heap = q.heap[:0]
	q.arena = q.arena[:0]
	q.next = q.next[:0]
	q.free = q.free[:0]
	q.wheelOcc = [wheelWords]uint64{}
	q.wheelCount = 0
}

// mix64 is the splitmix64 finalizer, used to derive shuffle tie-break keys.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Now returns the current simulated cycle.
func (q *EventQueue) Now() Cycle { return q.now }

// Pending returns the number of scheduled, not-yet-run events.
func (q *EventQueue) Pending() int { return len(q.heap) + q.wheelCount }

// At schedules fn to run at the absolute cycle at, which must not be in the
// past. Events at the same cycle run in scheduling order.
//
//stash:hotpath
func (q *EventQueue) At(at Cycle, name string, fn Event) {
	q.schedule(at, name, runEvent, fn)
}

// AtArg schedules fn(arg) at the absolute cycle at. It shares At's sequence
// counter and routing, so interleaved At/AtArg calls preserve scheduling
// order exactly; the point of the arg form is that a long-lived fn plus a
// pointer-shaped arg schedules without allocating a closure. Ownership of a
// pooled arg moves to the event queue until fn runs.
//
//stash:transfer
//stash:hotpath
func (q *EventQueue) AtArg(at Cycle, name string, fn func(any), arg any) {
	q.schedule(at, name, fn, arg)
}

// After schedules fn to run delay cycles from now.
//
//stash:hotpath
func (q *EventQueue) After(delay Cycle, name string, fn Event) {
	q.schedule(q.now+delay, name, runEvent, fn)
}

// AfterArg schedules fn(arg) delay cycles from now (see AtArg). Ownership
// of a pooled arg moves to the event queue until fn runs.
//
//stash:transfer
//stash:hotpath
func (q *EventQueue) AfterArg(delay Cycle, name string, fn func(any), arg any) {
	q.schedule(q.now+delay, name, fn, arg)
}

// schedule queues fn(arg) at cycle at. The name is only quoted by the
// scheduling-in-the-past panic, so it is not stored.
//
//stash:hotpath
func (q *EventQueue) schedule(at Cycle, name string, fn func(any), arg any) {
	if at < q.now {
		panic(fmt.Sprintf("sim: scheduling event %q at cycle %d, before now (%d)", name, at, q.now))
	}
	q.seq++
	idx := q.alloc(fn, arg)
	if q.shuffle != 0 {
		// Shuffled ties permute whole cycles, so the FIFO wheel cannot be
		// used; every event takes the heap path with a hashed tie key.
		q.heapPush(at, mix64(q.seq^q.shuffle), idx)
		return
	}
	if at-q.now < wheelSize {
		b := int(at) & wheelMask
		w, bit := b>>6, uint64(1)<<(b&63)
		if q.wheelOcc[w]&bit == 0 {
			q.wheelOcc[w] |= bit
			q.wheelHead[b] = idx
		} else {
			q.next[q.wheelTail[b]] = idx
		}
		q.wheelTail[b] = idx
		q.wheelCount++
		return
	}
	q.heapPush(at, q.seq, idx)
}

// alloc stores fn(arg) in a free arena slot and returns its index.
//
//stash:hotpath
func (q *EventQueue) alloc(fn func(any), arg any) int32 {
	if n := len(q.free); n > 0 {
		idx := q.free[n-1]
		q.free = q.free[:n-1]
		q.arena[idx] = eventSlot{fn: fn, arg: arg}
		return idx
	}
	q.arena = append(q.arena, eventSlot{fn: fn, arg: arg})
	q.next = append(q.next, 0)
	return int32(len(q.arena) - 1)
}

// take returns slot idx's payload and frees the slot. The payload is left
// in place rather than cleared: clearing a pointer-bearing slot costs a
// write barrier per event, and the slot is overwritten on reuse, so the
// arena retains at most its high-water mark of dead callbacks.
//
//stash:hotpath
func (q *EventQueue) take(idx int32) eventSlot {
	q.free = append(q.free, idx)
	return q.arena[idx]
}

//stash:hotpath
func (q *EventQueue) heapPush(at Cycle, tie uint64, idx int32) {
	// Sift up.
	i := len(q.heap)
	q.heap = append(q.heap, heapEntry{})
	ent := heapEntry{at: at, tie: tie, slot: idx}
	for i > 0 {
		p := (i - 1) >> 2
		if !ent.less(q.heap[p]) {
			break
		}
		q.heap[i] = q.heap[p]
		i = p
	}
	q.heap[i] = ent
}

// heapPop removes the heap minimum and returns its arena slot.
//
//stash:hotpath
func (q *EventQueue) heapPop() int32 {
	top := q.heap[0]
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if q.heap[j].less(q.heap[m]) {
					m = j
				}
			}
			if !q.heap[m].less(last) {
				break
			}
			q.heap[i] = q.heap[m]
			i = m
		}
		q.heap[i] = last
	}
	return top.slot
}

// nextWheel returns the cycle of the earliest wheel event; it must only be
// called with wheelCount > 0. The circular bitmap scan starts at now's
// bucket and costs at most wheelWords+1 trailing-zero counts.
//
//stash:hotpath
func (q *EventQueue) nextWheel() Cycle {
	start := int(q.now) & wheelMask
	wi, b0 := start>>6, uint(start&63)
	if w := q.wheelOcc[wi] >> b0; w != 0 {
		return q.now + Cycle(bits.TrailingZeros64(w))
	}
	off := 64 - int(b0)
	for k := 1; k < wheelWords; k++ {
		if w := q.wheelOcc[(wi+k)&(wheelWords-1)]; w != 0 {
			return q.now + Cycle(off+(k-1)*64+bits.TrailingZeros64(w))
		}
	}
	w := q.wheelOcc[wi] & (1<<b0 - 1)
	return q.now + Cycle(off+(wheelWords-1)*64+bits.TrailingZeros64(w))
}

// nextTime returns the cycle of the earliest pending event.
//
//stash:hotpath
func (q *EventQueue) nextTime() (Cycle, bool) {
	if q.wheelCount > 0 {
		t := q.nextWheel()
		if len(q.heap) > 0 && q.heap[0].at < t {
			t = q.heap[0].at
		}
		return t, true
	}
	if len(q.heap) > 0 {
		return q.heap[0].at, true
	}
	return 0, false
}

// NextEventTime returns the cycle of the earliest pending event, or false
// when the queue is empty. The parallel engine's workers use it to pick,
// among the queues they own, which one to step next — and the conservative
// epoch driver uses the global minimum to skip idle epochs.
//
//stash:hotpath
func (q *EventQueue) NextEventTime() (Cycle, bool) {
	return q.nextTime()
}

// popNext removes the globally earliest event and advances the clock to
// it. Heap entries due at the current cycle drain before the wheel bucket:
// they were necessarily scheduled before anything in the wheel (schedule
// routes a request into the wheel only once its cycle is fewer than
// wheelSize cycles out), so this is exactly (cycle, seq) order.
// Precondition: at least one event is pending.
//
//stash:hotpath
func (q *EventQueue) popNext() eventSlot {
	for {
		if len(q.heap) > 0 && q.heap[0].at == q.now {
			return q.take(q.heapPop())
		}
		b := int(q.now) & wheelMask
		w, bit := b>>6, uint64(1)<<(b&63)
		if q.wheelOcc[w]&bit != 0 {
			idx := q.wheelHead[b]
			if idx == q.wheelTail[b] {
				q.wheelOcc[w] &^= bit
			} else {
				q.wheelHead[b] = q.next[idx]
			}
			q.wheelCount--
			return q.take(idx)
		}
		// Nothing left at the current cycle: advance the clock.
		t, _ := q.nextTime()
		if t < q.now {
			panic("sim: time went backwards")
		}
		q.now = t
	}
}
