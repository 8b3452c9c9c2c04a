// Package coherence implements the MESI directory protocol that animates
// the directory organizations from internal/core: per-core L1 controllers,
// per-tile directory/LLC bank controllers, a memory model, and the
// correctness machinery (data-value oracle, SWMR and inclusion audits).
//
// The protocol is a blocking directory protocol: each bank serializes
// transactions per block through a transaction table (one TBE per block);
// requests to a busy block queue FIFO. L1 controllers answer every
// directory-initiated message immediately (possibly out of their eviction
// buffers), which makes the protocol deadlock-free by construction: the
// only waits are directory-TBE → L1-response and fixed-latency memory
// timers.
//
// The stash directory's relaxed inclusion shows up in two places here:
// banks set an LLC hidden bit when the directory stashes an entry, and a
// directory miss on a hidden LLC line triggers a discovery broadcast that
// rebuilds the tracking information from the private caches' responses.
package coherence

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/noc"
)

// MsgType enumerates the protocol messages.
type MsgType uint8

const (
	// L1 → directory requests.
	MsgGetS MsgType = iota // read miss: request a readable copy
	MsgGetM                // write miss or upgrade: request writable copy
	MsgPutS                // evicting a Shared line (clean, no data)
	MsgPutE                // evicting an Exclusive line (clean, no data)
	MsgPutM                // evicting a Modified line (carries data)

	// Directory → L1 responses and commands.
	MsgDataS  // grant: readable copy
	MsgDataE  // grant: exclusive clean copy (MESI E optimization)
	MsgDataM  // grant: writable copy (no payload when in-place upgrade)
	MsgInv    // invalidate the line; answer with InvAck
	MsgFetch  // downgrade to Shared; answer with FetchResp
	MsgPutAck // eviction acknowledged; free the eviction buffer

	// L1 → directory responses.
	MsgInvAck    // invalidation done (carries data when the line was dirty)
	MsgFetchResp // downgrade done (data when dirty; Retained=false if the copy was already gone)

	// Stash discovery.
	MsgDiscover     // probe: do you hold this block? (Kind says what to do if so)
	MsgDiscoverResp // answer: Found/Retained/data

	// Three-hop forwarding (Params.ThreeHopForwarding): the directory asks
	// the owner to send data straight to the requester.
	MsgFwdGetS // downgrade to Shared and forward DataS to Requester
	MsgFwdGetM // invalidate and forward DataM to Requester
	// MsgUnblock closes a three-hop transaction: the requester tells the
	// home bank its forwarded grant arrived. Without it the bank could
	// start the block's next transaction while the grant is still in
	// flight on the (unordered) owner→requester path, and an Inv or a
	// second forward could overtake it.
	MsgUnblock
)

// msgInfo describes one message type.
type msgInfo struct {
	name    string
	class   noc.Class // the NoC traffic class it is accounted under
	request bool      // an L1→directory request (see Request)
	toBank  bool      // delivered to the tile's bank (see ToBank)
}

// msgTypes describes every message type, indexed by type, so each
// per-message lookup is one load.
var msgTypes = [MsgUnblock + 1]msgInfo{
	MsgGetS:         {"GetS", noc.ClassRequest, true, true},
	MsgGetM:         {"GetM", noc.ClassRequest, true, true},
	MsgPutS:         {"PutS", noc.ClassWriteback, true, true},
	MsgPutE:         {"PutE", noc.ClassWriteback, true, true},
	MsgPutM:         {"PutM", noc.ClassWriteback, true, true},
	MsgDataS:        {"DataS", noc.ClassResponse, false, false},
	MsgDataE:        {"DataE", noc.ClassResponse, false, false},
	MsgDataM:        {"DataM", noc.ClassResponse, false, false},
	MsgInv:          {"Inv", noc.ClassInvalidation, false, false},
	MsgFetch:        {"Fetch", noc.ClassInvalidation, false, false},
	MsgPutAck:       {"PutAck", noc.ClassAck, false, false},
	MsgInvAck:       {"InvAck", noc.ClassAck, false, true},
	MsgFetchResp:    {"FetchResp", noc.ClassAck, false, true},
	MsgDiscover:     {"Discover", noc.ClassDiscovery, false, false},
	MsgDiscoverResp: {"DiscoverResp", noc.ClassDiscoveryResp, false, true},
	MsgFwdGetS:      {"FwdGetS", noc.ClassInvalidation, false, false},
	MsgFwdGetM:      {"FwdGetM", noc.ClassInvalidation, false, false},
	MsgUnblock:      {"Unblock", noc.ClassAck, false, true},
}

// info returns t's description. An out-of-range type gets the zero one:
// no request, delivered to an L1, in the request class.
func (t MsgType) info() msgInfo {
	if int(t) < len(msgTypes) {
		return msgTypes[t]
	}
	return msgInfo{}
}

// String names the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTypes) {
		return msgTypes[t].name
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Request reports whether the type is an L1→directory request, which is
// subject to per-block serialization (responses bypass the queue).
func (t MsgType) Request() bool { return t.info().request }

// ToBank reports whether the type is delivered to a tile's directory/LLC
// bank: the requests plus the L1 responses and the three-hop unblock.
// Every other type goes to the tile's L1, which panics on a type it does
// not handle.
func (t MsgType) ToBank() bool { return t.info().toBank }

// InvReason says why an invalidation (or discovery-invalidate) was sent;
// the experiments separate demand invalidations (a writer wants the block)
// from conflict-induced ones (directory recall, LLC inclusion victim),
// which are the invalidations the stash directory eliminates.
type InvReason uint8

const (
	ReasonDemand   InvReason = iota // another core's GetM
	ReasonRecall                    // directory entry conflict eviction
	ReasonLLCEvict                  // inclusive-LLC victim eviction
)

// String names the reason.
func (r InvReason) String() string {
	switch r {
	case ReasonDemand:
		return "demand"
	case ReasonRecall:
		return "recall"
	case ReasonLLCEvict:
		return "llc-evict"
	}
	return fmt.Sprintf("InvReason(%d)", uint8(r))
}

// DiscoverKind says what a discovery probe does to a found copy.
type DiscoverKind uint8

const (
	// DiscoverDowngrade leaves the found copy in Shared (GetS discovery).
	DiscoverDowngrade DiscoverKind = iota
	// DiscoverInvalidate kills the found copy (GetM or LLC-evict
	// discovery).
	DiscoverInvalidate
)

// Msg is a protocol message. The fabric routes it through the mesh and
// delivers it itself (see Fabric.send).
//
//stash:tileowned
type Msg struct {
	Type  MsgType
	Block mem.Block
	// From is the sending core for L1-originated messages and -1 for
	// bank-originated ones.
	From int
	// Data/HasData/Dirty carry the 64-bit block payload used by the value
	// oracle. Dirty distinguishes a modified payload that must be written
	// to the LLC from clean data.
	Data    uint64
	HasData bool
	Dirty   bool
	// Found (DiscoverResp): a copy existed. Retained (FetchResp,
	// DiscoverResp): the responder still holds a Shared copy afterwards.
	Found    bool
	Retained bool
	Reason   InvReason    // Inv and Discover(Invalidate)
	Kind     DiscoverKind // Discover only
	// Requester (FwdGetS/FwdGetM): the core the owner must forward data
	// to. Forwarded (FetchResp/InvAck): the owner already granted the
	// requester directly, so the bank must not send its own grant.
	Requester int
	Forwarded bool
	// HaveLine (GetM only): the requester holds a Shared copy and asks for
	// an in-place upgrade. The bank still sends data when its entry shows
	// the copy did not survive.
	HaveLine bool

	// dst is the node the message is delivered to: set by Fabric.send, or
	// by DeliverDirect for a message a send hook captured.
	dst int32
	// next chains a node's messages to itself in flight (see tile), and
	// queued requests behind a busy bank transaction (the TBE owns the
	// chain head).
	next *Msg
	// free marks a message currently parked in its pool, to catch
	// double-release bugs.
	free bool
}

// msgPool recycles Msg values. Every simulation is single-goroutine, so
// the pool is a plain free-list stack; the steady-state protocol path
// allocates no messages at all once the pool has warmed up.
//
// Ownership discipline: the sender acquires, the final receiver releases —
// at the end of its deliver handler, or when a queued request is dequeued
// and its fields copied into the transaction's TBE.
//
//stash:tileowned
type msgPool struct {
	freeList []*Msg
	inUse    int
	high     int // high-water mark of simultaneously live messages
	poison   bool
}

// resetBooks zeroes the live count and the high-water mark. Messages that
// were live are abandoned to the garbage collector unless their holders
// put them back first; the free list and the poison mode are kept.
func (p *msgPool) resetBooks() { p.inUse, p.high = 0, 0 }

// get returns a zeroed message.
//
//stash:acquire
//stash:hotpath
func (p *msgPool) get() *Msg {
	p.inUse++
	if p.inUse > p.high {
		p.high = p.inUse
	}
	n := len(p.freeList)
	if n == 0 {
		return &Msg{} //stash:ignore hotpath pool warm-up; amortized away by reuse
	}
	m := p.freeList[n-1]
	p.freeList = p.freeList[:n-1]
	*m = Msg{}
	return m
}

// put releases a message back to the pool. With poison mode on (the
// property tests enable it) the payload is stamped with garbage so any
// use-after-release trips a protocol panic instead of silently reading
// stale fields.
//
//stash:release
//stash:hotpath
func (p *msgPool) put(m *Msg) {
	if m.free {
		panic("coherence: message released twice")
	}
	m.free = true
	m.next = nil
	if p.poison {
		m.Type = MsgType(0xEE)
		m.Block = mem.Block(0xDEADBEEFDEADBEEF)
		m.From = -0x7FFF
		m.Data = 0xEEEEEEEEEEEEEEEE
		m.Requester = -0x7FFF
	}
	p.inUse--
	p.freeList = append(p.freeList, m)
}

// flits returns the network size of the message: one control flit, plus
// four more when a data payload rides along (64-byte line over 16-byte
// flits).
func (m *Msg) flits() int {
	if m.HasData {
		return 5
	}
	return 1
}

// class maps the message onto a NoC traffic class for the traffic-breakdown
// accounting.
func (m *Msg) class() noc.Class { return m.Type.info().class }

func (m *Msg) String() string {
	return fmt.Sprintf("%s blk=%#x from=%d", m.Type, uint64(m.Block), m.From)
}
