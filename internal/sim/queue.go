package sim

import (
	"fmt"
	"math/bits"
)

// eventSlot is an event's payload, stored out-of-line from the heap keys
// (and inline in the rings, which are never sifted). An event is either a
// plain closure (run) or an arg-passing pair (argFn, arg) scheduled through
// AtArg/AfterArg; the latter lets callers reuse one long-lived func value
// and avoid allocating a fresh closure per event.
type eventSlot struct {
	run   Event
	argFn func(any)
	arg   any
	name  string // quoted by the scheduling-in-the-past panic
}

// fire executes whichever form of callback the slot carries.
//
//stash:hotpath
func (s *eventSlot) fire() {
	if s.argFn != nil {
		s.argFn(s.arg)
		return
	}
	s.run()
}

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

// ring is a growable power-of-two circular FIFO of events all due at one
// cycle. Storage is reused across cycles, so steady-state pushes do not
// allocate.
//
//stash:tileowned
type ring struct {
	buf  []eventSlot
	head int
	n    int
}

//stash:hotpath
func (r *ring) push(s eventSlot) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = s
	r.n++
}

//stash:hotpath
func (r *ring) pop() eventSlot {
	// The popped slot is left stale rather than cleared: clearing a
	// pointer-bearing struct costs a write barrier per event, and the slot
	// is overwritten on reuse anyway, so at most one buffer's worth of dead
	// callbacks is retained.
	s := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return s
}

func (r *ring) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]eventSlot, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
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

	// 4-ary min-heap of far-future events; payloads live in arena, with
	// recycled slots threaded through free.
	heap  []heapEntry
	arena []eventSlot
	free  []int32

	// Timing wheel of near-future events (FIFO ties only): bucket
	// wheel[t & wheelMask] holds the events due at cycle t for
	// t - now < wheelSize. wheelOcc is the per-bucket occupancy bitmap.
	wheel      [wheelSize]ring
	wheelOcc   [wheelWords]uint64
	wheelCount int

	// slab seeds ring buffers: a bucket's first use carves its initial
	// buffer from the current slab chunk, and each new chunk covers as
	// many buckets as are seeded already (seedChunk at first). A
	// model-checker world that touches a handful of buckets pays for one
	// small chunk; a run that touches every bucket (the parallel engine
	// builds one EventQueue per tile per run) brings the wheel up in
	// log2(wheelSize/seedChunk)+1 allocations with no seed left unused.
	slab   []eventSlot
	seeded int // buckets given a ring buffer so far
}

// ringSeed is the initial per-bucket ring capacity carved from the slab.
// Must be a power of two (ring indexing masks by capacity).
const ringSeed = 8

// seedChunk is how many buckets' seeds the first slab chunk covers.
const seedChunk = 8

// seedRing hands out one initial ring buffer from the queue's slab.
func (q *EventQueue) seedRing() []eventSlot {
	if len(q.slab) < ringSeed {
		q.slab = make([]eventSlot, max(q.seeded, seedChunk)*ringSeed)
	}
	q.seeded++
	buf := q.slab[:ringSeed:ringSeed]
	q.slab = q.slab[ringSeed:]
	return buf
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
	q.schedule(at, eventSlot{run: fn, name: name})
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
	q.schedule(at, eventSlot{argFn: fn, arg: arg, name: name})
}

// After schedules fn to run delay cycles from now.
//
//stash:hotpath
func (q *EventQueue) After(delay Cycle, name string, fn Event) {
	q.schedule(q.now+delay, eventSlot{run: fn, name: name})
}

// AfterArg schedules fn(arg) delay cycles from now (see AtArg). Ownership
// of a pooled arg moves to the event queue until fn runs.
//
//stash:transfer
//stash:hotpath
func (q *EventQueue) AfterArg(delay Cycle, name string, fn func(any), arg any) {
	q.schedule(q.now+delay, eventSlot{argFn: fn, arg: arg, name: name})
}

//stash:hotpath
func (q *EventQueue) schedule(at Cycle, s eventSlot) {
	if at < q.now {
		panic(fmt.Sprintf("sim: scheduling event %q at cycle %d, before now (%d)", s.name, at, q.now))
	}
	q.seq++
	if q.shuffle != 0 {
		// Shuffled ties permute whole cycles, so the FIFO wheel cannot be
		// used; every event takes the heap path with a hashed tie key.
		q.heapPush(at, mix64(q.seq^q.shuffle), s)
		return
	}
	if at-q.now < wheelSize {
		b := int(at) & wheelMask
		r := &q.wheel[b]
		if r.buf == nil {
			r.buf = q.seedRing()
		}
		r.push(s)
		q.wheelOcc[b>>6] |= 1 << (b & 63)
		q.wheelCount++
		return
	}
	q.heapPush(at, q.seq, s)
}

//stash:hotpath
func (q *EventQueue) heapPush(at Cycle, tie uint64, s eventSlot) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.arena[idx] = s
	} else {
		idx = int32(len(q.arena))
		q.arena = append(q.arena, s)
	}
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

// heapPop removes the heap minimum and returns its payload, recycling the
// arena slot.
//
//stash:hotpath
func (q *EventQueue) heapPop() eventSlot {
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
	s := q.arena[top.slot]
	q.arena[top.slot] = eventSlot{} // release the closure for GC
	q.free = append(q.free, top.slot)
	return s
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
			return q.heapPop()
		}
		b := int(q.now) & wheelMask
		if r := &q.wheel[b]; r.n > 0 {
			s := r.pop()
			q.wheelCount--
			if r.n == 0 {
				q.wheelOcc[b>>6] &^= 1 << (b & 63)
			}
			return s
		}
		// Nothing left at the current cycle: advance the clock.
		t, _ := q.nextTime()
		if t < q.now {
			panic("sim: time went backwards")
		}
		q.now = t
	}
}
