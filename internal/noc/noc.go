// Package noc models the on-chip interconnect: a 2D mesh with XY
// dimension-order routing, per-link serialization and contention, and
// per-message-class traffic accounting (flit-hops), which feeds both the
// paper's network-traffic figures and the energy model.
//
// Timing model: a message is routed hop by hop at send time. At each link it
// reserves the link for as many cycles as it has flits (serialization), so
// later messages crossing the same link observe queueing delay. Per-hop cost
// is router latency + link latency. A single delivery event fires at the
// computed arrival cycle. This link-reservation model captures first-order
// contention without per-flit event overhead and is fully deterministic.
package noc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// NodeID identifies a mesh node (one tile). Tiles are numbered row-major:
// node n sits at (n % width, n / width).
type NodeID int

// Class categorizes a message for traffic accounting. The experiment
// harness reports flit-hops per class, matching the traffic-breakdown
// figure.
type Class uint8

// Message classes. Discovery and DiscoveryResp exist so the stash
// directory's broadcast overhead is separately visible.
const (
	ClassRequest       Class = iota // GetS/GetM/upgrade requests
	ClassResponse                   // data and grant responses
	ClassInvalidation               // Inv, Fetch, FetchInv, recalls
	ClassAck                        // InvAck, PutAck and other control acks
	ClassWriteback                  // PutS/PutE/PutM and victim data
	ClassDiscovery                  // stash discovery probes
	ClassDiscoveryResp              // stash discovery responses
	NumClasses
)

// String returns the class name used in reports.
func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassResponse:
		return "response"
	case ClassInvalidation:
		return "invalidation"
	case ClassAck:
		return "ack"
	case ClassWriteback:
		return "writeback"
	case ClassDiscovery:
		return "discovery"
	case ClassDiscoveryResp:
		return "discovery-resp"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Message is one network transfer. Payload is opaque to the NoC; the
// coherence package stores its protocol messages there.
//
//stash:tileowned
type Message struct {
	Src, Dst NodeID
	Class    Class
	Flits    int
	Payload  any

	// pooled marks a message acquired through Post; the mesh recycles it
	// after delivery. Caller-built messages passed to Send are never
	// recycled.
	pooled bool
}

// Endpoint receives messages delivered to a node.
type Endpoint interface {
	Deliver(msg *Message)
}

// Config describes the mesh.
type Config struct {
	Width, Height int
	RouterLatency sim.Cycle // cycles spent in each router's pipeline
	LinkLatency   sim.Cycle // cycles to traverse each link
	// LinkBandwidth is flits per cycle per link; 1 matches a 16-byte link
	// with 16-byte flits. Must be >= 1.
	LinkBandwidth int
}

// DefaultConfig returns the mesh parameters of the paper's 16-core model.
func DefaultConfig(width, height int) Config {
	return Config{
		Width:         width,
		Height:        height,
		RouterLatency: 3,
		LinkLatency:   1,
		LinkBandwidth: 1,
	}
}

// Mesh is the interconnect instance.
//
// In a parallel run there is exactly one Mesh, aliased by every tile view;
// its mutable state (link reservations, the envelope pool) is touched only
// in fold context — the serial engine, or the epoch merge via ReserveRoute.
//
//stash:shared one spine aliased by every tile view; mutated only in fold context
type Mesh struct {
	cfg       Config
	engine    *sim.Engine
	endpoints []Endpoint

	// linkFree[l] is the first cycle at which link l can start serializing
	// a new message. Links are unidirectional; see linkIndex.
	linkFree []sim.Cycle

	stats Stats

	// free recycles Post-acquired messages; deliverFn is the single
	// long-lived delivery callback shared by every in-flight message, so a
	// send schedules its delivery event without allocating a closure.
	free      []*Message
	deliverFn func(any)

	// local holds each node's self-addressed messages in flight, oldest
	// first (see deliver). It is made on the first self-addressed send: a
	// model-checker world, whose sends never reach the mesh, has none.
	local []Queue
}

// Queue holds a node's self-addressed messages in flight, in send order,
// so that the delivery events of two of them, which tie, deliver them in
// that order (see Mesh.deliver). It is a ring that doubles when full.
//
//stash:tileowned
type Queue struct {
	ring []*Message // length 0 or a power of two
	head int
	n    int
}

// Push appends msg; the queue owns it until Pop returns it.
//
//stash:transfer
//stash:hotpath
func (q *Queue) Push(msg *Message) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = msg
	q.n++
}

// Pop removes and returns the oldest message; the queue must not be empty.
//
//stash:hotpath
func (q *Queue) Pop() *Message {
	msg := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return msg
}

// grow doubles the ring, keeping its order.
func (q *Queue) grow() {
	ring := make([]*Message, max(4, 2*len(q.ring)))
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}

// reset empties the queue, keeping its ring.
func (q *Queue) reset() {
	clear(q.ring)
	q.head, q.n = 0, 0
}

// New builds a mesh attached to the given engine.
func New(engine *sim.Engine, cfg Config) (*Mesh, error) {
	if cfg.Width < 1 || cfg.Height < 1 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.LinkBandwidth < 1 {
		return nil, fmt.Errorf("noc: link bandwidth must be >= 1, got %d", cfg.LinkBandwidth)
	}
	n := cfg.Width * cfg.Height
	m := &Mesh{
		cfg:       cfg,
		engine:    engine,
		endpoints: make([]Endpoint, n),
		// 4 outgoing directions per node is an upper bound; unused slots
		// stay at zero and are never indexed.
		linkFree: make([]sim.Cycle, n*4),
	}
	// Bind the method value once: every in-flight message shares this one
	// callback, so sends schedule delivery without allocating a closure.
	m.deliverFn = m.deliver
	return m, nil
}

// deliver hands an arrived message to its destination endpoint and recycles
// a pooled envelope. A message between two nodes is its event's argument.
// A self-addressed one is not: its event carries the node's queue of them
// and delivers the oldest. Every self-addressed message takes the same
// latency, so the oldest is due whenever any is, and delivery events tied
// in one cycle, which a shuffle seed runs in any order, still deliver a
// node's messages to itself in send order, as the protocol requires of
// every (source, destination) pair. Messages between two nodes cannot
// tie: the second waits for the first on every link.
//
//stash:fold serial-engine delivery path; parallel tiles deliver via tileLocal, never through the mesh
//stash:hotpath
func (m *Mesh) deliver(arg any) {
	var msg *Message
	switch a := arg.(type) {
	case *Message:
		msg = a
	case *Queue:
		msg = a.Pop()
	}
	m.endpoints[msg.Dst].Deliver(msg)
	if msg.pooled {
		m.putMessage(msg)
	}
}

// getMessage draws an envelope from the free list.
//
//stash:fold serial-engine send path; parallel tiles draw envelopes from their tileLocal pool
//stash:acquire
//stash:hotpath
func (m *Mesh) getMessage() *Message {
	if n := len(m.free); n > 0 {
		msg := m.free[n-1]
		m.free = m.free[:n-1]
		return msg
	}
	return &Message{pooled: true} //stash:ignore hotpath pool warm-up; amortized away by reuse
}

// putMessage returns a pooled envelope to the free list.
//
//stash:fold serial-engine delivery path; parallel tiles recycle envelopes tile-locally
//stash:release
//stash:hotpath
func (m *Mesh) putMessage(msg *Message) {
	msg.Payload = nil
	m.free = append(m.free, msg)
}

// makeLocal makes every node's queue of self-addressed messages.
func (m *Mesh) makeLocal() { m.local = make([]Queue, len(m.endpoints)) }

// Reset returns the mesh to what New built: every link free from cycle 0,
// no self-addressed message in flight and the statistics zeroed. Attached
// endpoints and the envelope free list are kept. Envelopes still in flight
// belong to the engine's pending events, which its own Reset drops; they
// are not recovered.
func (m *Mesh) Reset() {
	clear(m.linkFree)
	for i := range m.local {
		m.local[i].reset()
	}
	m.stats = Stats{}
}

// Nodes returns the number of mesh nodes.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Stats counts the mesh's traffic. Both counters feed the traffic
// breakdown and the energy model; per-message latency is not recorded,
// since nothing read it.
type Stats struct {
	Messages [NumClasses]stats.Counter // messages sent, by class
	FlitHops [NumClasses]stats.Counter // flits × links crossed, by class
}

// Stats returns the mesh's counters.
func (m *Mesh) Stats() *Stats { return &m.stats }

// Attach registers the endpoint for node id. It must be called once per
// node before any traffic reaches that node.
func (m *Mesh) Attach(id NodeID, ep Endpoint) {
	if m.endpoints[id] != nil {
		panic(fmt.Sprintf("noc: endpoint for node %d attached twice", id))
	}
	m.endpoints[id] = ep
}

// Coord returns the (x, y) position of node id.
func (m *Mesh) Coord(id NodeID) (x, y int) {
	return int(id) % m.cfg.Width, int(id) / m.cfg.Width
}

// nodeAt returns the node at (x, y).
func (m *Mesh) nodeAt(x, y int) NodeID {
	return NodeID(y*m.cfg.Width + x)
}

// direction encoding for linkIndex.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// linkIndex identifies the unidirectional link leaving node from in
// direction dir.
func (m *Mesh) linkIndex(from NodeID, dir int) int {
	return int(from)*4 + dir
}

// Hops returns the number of links on the XY route between two nodes.
func (m *Mesh) Hops(src, dst NodeID) int {
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// route reserves the XY path's links for a message of the given class and
// size injected at cycle now, records its flit-hops, and returns the
// arrival cycle. It is the timing core shared by Send (serial,
// at send time) and ReserveRoute (parallel, replayed at the epoch merge):
// both produce identical link reservations and arrival cycles for the same
// (src, dst, flits, now) inputs, which is what makes the parallel engine's
// deferred replay timing-equivalent to the serial engine's inline send.
//
//stash:fold called only from Send (serial engine) and ReserveRoute (epoch merge, workers parked)
//stash:hotpath
func (m *Mesh) route(src, dst NodeID, class Class, flits int, now sim.Cycle) sim.Cycle {
	t := now + m.cfg.RouterLatency // injection through the local router
	if src != dst {
		serialize := sim.Cycle((flits + m.cfg.LinkBandwidth - 1) / m.cfg.LinkBandwidth)
		x, y := m.Coord(src)
		dx, dy := m.Coord(dst)
		hops := 0
		// XY routing: walk X first, then Y, reserving each link.
		for x != dx || y != dy {
			var dir int
			nx, ny := x, y
			switch {
			case x < dx:
				dir, nx = dirEast, x+1
			case x > dx:
				dir, nx = dirWest, x-1
			case y < dy:
				dir, ny = dirSouth, y+1
			default:
				dir, ny = dirNorth, y-1
			}
			link := m.linkIndex(m.nodeAt(x, y), dir)
			start := t
			if m.linkFree[link] > start {
				start = m.linkFree[link]
			}
			m.linkFree[link] = start + serialize
			t = start + m.cfg.LinkLatency + m.cfg.RouterLatency
			x, y = nx, ny
			hops++
		}
		m.stats.FlitHops[class].Add(int64(flits * hops))
	}
	return t
}

// Send routes msg from msg.Src to msg.Dst and schedules its delivery. It
// returns the arrival cycle. Messages to self are delivered after the
// router latency only (local turnaround), with no link traffic. The mesh
// owns msg until the destination endpoint's Deliver runs.
//
//stash:fold serial engine only; parallel sends park in tile mailboxes and replay through ReserveRoute
//stash:transfer
//stash:hotpath
func (m *Mesh) Send(msg *Message) sim.Cycle {
	if msg.Flits < 1 {
		panic("noc: message with no flits")
	}
	m.stats.Messages[msg.Class].Inc()
	if m.endpoints[msg.Dst] == nil {
		panic(fmt.Sprintf("noc: no endpoint attached to node %d", msg.Dst))
	}
	t := m.route(msg.Src, msg.Dst, msg.Class, msg.Flits, m.engine.Now())
	if msg.Src == msg.Dst {
		if m.local == nil {
			m.makeLocal()
		}
		q := &m.local[msg.Dst]
		q.Push(msg)
		m.engine.AtArg(t, "noc.deliver", m.deliverFn, q)
	} else {
		m.engine.AtArg(t, "noc.deliver", m.deliverFn, msg)
	}
	return t
}

// ReserveRoute accounts and reserves the route of a cross-tile message
// sent at cycle sent, returning its arrival cycle — without scheduling a
// delivery (the parallel driver schedules it on the destination tile's own
// queue). The epoch merge replays every cross-tile send of an epoch
// through here in the canonical (cycle, source tile, send order) order, so
// link contention resolves exactly as if the sends had been routed inline
// in that order.
//
//stash:fold runs at the epoch merge with every worker parked at the barrier
//stash:hotpath
func (m *Mesh) ReserveRoute(src, dst NodeID, class Class, flits int, sent sim.Cycle) sim.Cycle {
	if flits < 1 {
		panic("noc: message with no flits")
	}
	m.stats.Messages[class].Inc()
	return m.route(src, dst, class, flits, sent)
}

// MinHopLatency returns the smallest possible latency of a cross-tile
// message: one hop with an idle link — source router, link traversal,
// destination router. It is the parallel engine's lookahead bound L: a
// message emitted in epoch [k·L, (k+1)·L) can never be due before epoch
// k+1, so deferring its delivery to the epoch barrier never misses its
// cycle.
func (c Config) MinHopLatency() sim.Cycle {
	return 2*c.RouterLatency + c.LinkLatency
}

// MinHopLatency returns the mesh's lookahead bound (see Config.MinHopLatency).
func (m *Mesh) MinHopLatency() sim.Cycle { return m.cfg.MinHopLatency() }

// LocalTraffic accumulates one tile's self-addressed traffic (messages a
// tile sends to itself never touch links and, in the parallel engine, are
// delivered tile-locally without crossing the epoch merge). FoldLocal
// folds it into the mesh statistics at end of run.
//
//stash:tileowned
type LocalTraffic struct {
	Msgs [NumClasses]int64
}

// FoldLocal merges a tile's local-traffic accumulator into the mesh
// statistics. The parallel driver calls it once per tile, in tile order,
// after the run completes; counter sums commute, so the folded totals
// equal what inline accounting would have produced regardless of shard
// layout.
func (m *Mesh) FoldLocal(l *LocalTraffic) {
	for c := Class(0); c < NumClasses; c++ {
		m.stats.Messages[c].Add(l.Msgs[c])
	}
}

// Post sends a pooled message: the transfer envelope is recycled after
// delivery, so the steady-state send path performs no allocation. The
// payload's lifetime is the receiver's concern, exactly as with Send.
//
//stash:hotpath
func (m *Mesh) Post(src, dst NodeID, class Class, flits int, payload any) sim.Cycle {
	msg := m.getMessage()
	msg.Src, msg.Dst, msg.Class, msg.Flits, msg.Payload = src, dst, class, flits, payload
	return m.Send(msg)
}

// TotalFlitHops returns the sum of flit-hops across all classes.
func (m *Mesh) TotalFlitHops() int64 {
	var total int64
	for c := Class(0); c < NumClasses; c++ {
		total += m.stats.FlitHops[c].Value()
	}
	return total
}

// FlitHops returns the flit-hops recorded for one class.
func (m *Mesh) FlitHops(c Class) int64 { return m.stats.FlitHops[c].Value() }

// Messages returns the message count recorded for one class.
func (m *Mesh) Messages(c Class) int64 { return m.stats.Messages[c].Value() }
