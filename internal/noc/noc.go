// Package noc models the on-chip interconnect's timing and traffic: a 2D
// mesh with XY dimension-order routing, per-link serialization and
// contention, and per-message-class traffic accounting (flit-hops), which
// feeds both the paper's network-traffic figures and the energy model.
//
// The mesh routes; it does not deliver. Route reserves a message's path at
// send time and returns its arrival cycle, and the sender schedules the
// delivery at that cycle. At each link a message reserves the link for as
// many cycles as it has flits (serialization), so later messages crossing
// the same link observe queueing delay. Per-hop cost is router latency +
// link latency. This link-reservation model captures first-order
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
// its mutable state (link reservations and statistics) is touched only
// through Route, in fold context: the serial engine, or the epoch merge.
//
//stash:shared one spine aliased by every tile view; mutated only in fold context
type Mesh struct {
	cfg Config

	// linkFree[l] is the first cycle at which link l can start serializing
	// a new message. Links are unidirectional; see linkIndex.
	linkFree []sim.Cycle

	stats Stats
}

// New builds a mesh.
func New(cfg Config) (*Mesh, error) {
	if cfg.Width < 1 || cfg.Height < 1 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.LinkBandwidth < 1 {
		return nil, fmt.Errorf("noc: link bandwidth must be >= 1, got %d", cfg.LinkBandwidth)
	}
	return &Mesh{
		cfg: cfg,
		// 4 outgoing directions per node is an upper bound; unused slots
		// stay at zero and are never indexed.
		linkFree: make([]sim.Cycle, cfg.Width*cfg.Height*4),
	}, nil
}

// Reset returns the mesh to what New built: every link free from cycle 0
// and the statistics zeroed.
func (m *Mesh) Reset() {
	clear(m.linkFree)
	m.stats = Stats{}
}

// Stats counts the mesh's traffic. Both counters feed the traffic
// breakdown and the energy model; per-message latency is not recorded,
// since nothing read it.
type Stats struct {
	Messages [NumClasses]stats.Counter // messages sent, by class
	FlitHops [NumClasses]stats.Counter // flits × links crossed, by class
}

// Stats returns the mesh's counters.
func (m *Mesh) Stats() *Stats { return &m.stats }

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

// Route accounts one message of the given class and size injected at node
// src in cycle now, reserves the links of its XY path to dst, records its
// flit-hops, and returns the cycle it arrives. It schedules nothing: the
// sender delivers the message at that cycle. A message to self takes the
// router latency only (local turnaround) and crosses no link.
//
// The serial fabric routes each message as it is sent; the parallel one
// replays every cross-tile send of an epoch through here at the merge, in
// the canonical (cycle, source tile, send order) order, so link contention
// resolves exactly as if those sends had been routed inline in that order.
//
//stash:fold runs on the serial engine, or at the epoch merge with every worker parked at the barrier
//stash:hotpath
func (m *Mesh) Route(src, dst NodeID, class Class, flits int, now sim.Cycle) sim.Cycle {
	if flits < 1 {
		panic("noc: message with no flits")
	}
	m.stats.Messages[class].Inc()
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
