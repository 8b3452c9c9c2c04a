package coherence

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/psim"
	"repro/internal/sim"
)

// Params are the protocol timing and policy parameters shared by every
// controller. Latencies follow the paper's 16-core model.
type Params struct {
	Cores        int
	L1HitLatency sim.Cycle // L1 access (hit or tag check) latency
	L2HitLatency sim.Cycle // private L2 access latency (when an L2 exists)
	BankLatency  sim.Cycle // directory + LLC bank access latency
	MemLatency   sim.Cycle // off-chip memory read latency
	ThinkTime    sim.Cycle // core cycles between completed accesses
	// SilentCleanEvictions makes L1s drop Shared and (clean) Exclusive
	// victims without notifying the directory, leaving stale sharer bits
	// the protocol must tolerate. Default is notified evictions.
	SilentCleanEvictions bool
	// ThreeHopForwarding makes owners send data directly to requesters
	// (owner→requester + owner→directory ack) instead of routing data
	// through the directory (owner→directory→requester). Two hops fewer
	// of latency on dirty sharing; the default is directory-centric.
	ThreeHopForwarding bool
	// RetryDelay is how long a bank waits before retrying an allocation
	// that found every victim candidate busy.
	RetryDelay sim.Cycle
	// MSHRs is how many demand accesses a core may have outstanding at
	// once (its memory-level parallelism). 0 or 1 models the blocking
	// in-order core of the base configuration.
	MSHRs int
	// PointerLimit selects the directory entry format: 0 keeps full-map
	// sharer vectors; P > 0 models Dir_P-B limited-pointer entries, whose
	// sharer set overflows past P sharers and must then be invalidated by
	// broadcast. Entry width (area/energy) shrinks accordingly.
	PointerLimit int
}

// DefaultParams returns the paper-model timing for the given core count.
func DefaultParams(cores int) Params {
	return Params{
		Cores:        cores,
		L1HitLatency: 2,
		L2HitLatency: 10,
		BankLatency:  8,
		MemLatency:   160,
		ThinkTime:    1,
		RetryDelay:   16,
		MSHRs:        1,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Cores < 1 || p.Cores > core.MaxCores {
		return fmt.Errorf("coherence: cores must be in [1,%d], got %d", core.MaxCores, p.Cores)
	}
	if p.RetryDelay == 0 {
		return fmt.Errorf("coherence: retry delay must be nonzero")
	}
	if p.MSHRs < 0 {
		return fmt.Errorf("coherence: MSHRs must be non-negative, got %d", p.MSHRs)
	}
	if p.PointerLimit < 0 {
		return fmt.Errorf("coherence: pointer limit must be non-negative, got %d", p.PointerLimit)
	}
	return nil
}

// Fabric wires the controllers together: it owns the engine, the mesh, the
// L1s, the banks, the memory model and the checker, and provides message
// transport with tile-level demultiplexing.
//
// Topology: tile i holds core i, its L1, and LLC/directory bank i; blocks
// are address-interleaved across banks on the low block bits.
type Fabric struct {
	Engine  *sim.Engine
	Mesh    *noc.Mesh
	Params  Params
	L1s     []*L1
	Banks   []*Bank
	Memory  *Memory
	Checker *Checker

	// OnMessage, when set, observes every protocol message as it is sent.
	// The protocoltrace example uses it to annotate runs.
	OnMessage func(src, dst noc.NodeID, m *Msg)

	// sendHook, when set (SetSendHook), may capture a message instead of
	// letting the mesh transport it: a true return means the hook took
	// ownership. The model checker uses it to park every send in explicit
	// per-channel queues whose delivery order it enumerates.
	sendHook func(src, dst noc.NodeID, m *Msg) bool

	// retryHook, when set (SetRetryHook), intercepts the banks' timed
	// allocation retries (LLC-victim and directory-entry) so an enumerating
	// scheduler can treat "the retry timer fires" as an explicit choice
	// point instead of a busy-wait loop inside the engine.
	retryHook func(ParkedRetry)

	// pool recycles protocol messages (see msgPool); the controllers also
	// keep per-instance TBE free lists, so the steady-state protocol path
	// touches the heap only while these pools warm up.
	pool msgPool

	// Parallel-mode fields, set only on the per-tile fabric views built by
	// NewParallelFabric (nil on a serial fabric). pout buffers this tile's
	// cross-tile sends for the epoch merge; local delivers self-addressed
	// messages on the tile's own queue. See parallel.go.
	pout  *psim.Mailbox[parcel]
	local *tileLocal
}

// newMsg acquires a zeroed message from the fabric's pool.
//
//stash:acquire
//stash:hotpath
func (f *Fabric) newMsg(t MsgType, b mem.Block) *Msg {
	m := f.pool.get()
	m.Type = t
	m.Block = b
	return m
}

// releaseMsg returns a delivered message to the pool.
//
//stash:release
//stash:hotpath
func (f *Fabric) releaseMsg(m *Msg) { f.pool.put(m) }

// SetPoolDebug toggles the message pool's poison mode: released messages
// are stamped with garbage so any use-after-release fails loudly. Tests
// only; poisoning does not change behavior of correct code.
func (f *Fabric) SetPoolDebug(on bool) { f.pool.poison = on }

// Reset returns a serial fabric to the state NewFabric built, keeping the
// storage every layer has grown: the engine at cycle 0 with nothing
// pending, idle mesh links, empty caches, directory slices, transaction
// tables and memory, a fresh value oracle, and every statistic zeroed.
// Live TBEs go back to their free lists and queued requests to the message
// pool; messages held anywhere else (pending engine events, a send hook's
// capture) are abandoned unless their holder recycles them first. The
// wiring, the send and retry hooks, OnMessage, the checker's enabled flag,
// the engine's shuffle seed and the pool's debug mode are kept. Processors
// attached before the reset must not be started again; attach new ones.
// The model checker resets one fabric per replay instead of building one.
func (f *Fabric) Reset() {
	if f.pout != nil || (len(f.L1s) > 0 && f.L1s[0].fab != f) {
		panic("coherence: Reset on a parallel fabric")
	}
	f.Engine.Reset()
	f.Mesh.Reset()
	for _, l1 := range f.L1s {
		l1.reset()
	}
	for _, bk := range f.Banks {
		bk.reset()
	}
	f.Memory.reset()
	f.Checker.reset()
	f.pool.resetBooks()
}

// MsgPoolStats reports the message pool's live count and high-water mark,
// letting tests bound the protocol's peak message population.
func (f *Fabric) MsgPoolStats() (inUse, highWater int) {
	return f.pool.inUse, f.pool.high
}

// tile is the per-node NoC endpoint; it routes bank-bound message types
// (MsgType.ToBank) to the bank and the rest to the L1.
type tile struct {
	l1   *L1
	bank *Bank
}

// Deliver implements noc.Endpoint. The receiving controller takes ownership
// of the payload message and releases it at the end of its handler.
//
//stash:hotpath
func (t *tile) Deliver(nm *noc.Message) {
	m := nm.Payload.(*Msg)
	if m.Type.ToBank() {
		t.bank.deliver(m)
	} else {
		t.l1.deliver(m)
	}
}

// HomeBank returns the bank that owns block b.
func (f *Fabric) HomeBank(b mem.Block) int {
	return int(uint64(b) % uint64(len(f.Banks)))
}

// send transports m across the mesh on a pooled envelope. The mesh (and
// eventually the receiving tile) owns m from here on. On a parallel tile
// view the transport is deferred instead: self-addressed messages are
// scheduled on the tile's own queue and cross-tile ones parked in the
// tile's mailbox for the epoch merge (see parallel.go).
//
//stash:transfer
//stash:hotpath
func (f *Fabric) send(src, dst noc.NodeID, m *Msg) {
	if f.OnMessage != nil {
		f.OnMessage(src, dst, m)
	}
	if f.sendHook != nil && f.sendHook(src, dst, m) {
		return
	}
	if f.pout != nil {
		f.psend(src, dst, m)
		return
	}
	f.Mesh.Post(src, dst, m.class(), m.flits(), m)
}

// sendToBank sends m from core-side node src to block's home bank.
//
//stash:transfer
//stash:hotpath
func (f *Fabric) sendToBank(src noc.NodeID, m *Msg) {
	f.send(src, noc.NodeID(f.HomeBank(m.Block)), m)
}

// sendToCore sends m from bank node src to core id's tile.
//
//stash:transfer
//stash:hotpath
func (f *Fabric) sendToCore(src noc.NodeID, core int, m *Msg) {
	f.send(src, noc.NodeID(core), m)
}
