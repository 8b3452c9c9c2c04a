package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
)

// LLC line flags.
const (
	// flagHidden marks an LLC line whose block is cached privately but no
	// longer tracked by the directory: its entry was stashed. A directory
	// miss on a hidden line triggers a discovery broadcast.
	flagHidden uint32 = 1 << 0
)

// tbeCont names the continuation a transaction runs once its awaited
// responses arrive. The TBEs used to hold closures here; an enum plus
// explicit state fields keeps the steady-state path allocation-free and
// makes the transaction state machine inspectable.
type tbeCont uint8

const (
	contNone        tbeCont = iota
	contFwdGetS             // 3-hop GetS: owner answered the forward
	contFetch               // 2-hop GetS: owner answered the fetch
	contFwdGetM             // 3-hop GetM: owner answered the forward
	contInvOwner            // 2-hop GetM: owner acknowledged the Inv
	contInvSharers          // GetM on a shared entry: sharer Invs acked
	contHidden              // demand discovery broadcast completed
	contRecall              // directory-entry recall (allocEntry) completed
	contEvictRecall         // LLC-victim recall completed
	contEvictHidden         // LLC-victim hidden-copy discovery completed
)

// tbeAlloc selects what allocDone does with the fresh directory entry.
type tbeAlloc uint8

const (
	allocGrantFresh tbeAlloc = iota // grant E/M to the requester
	allocHidden                     // finish a demand discovery (serveHidden)
)

// dirTBE serializes transactions per block at a bank. While a block's TBE
// exists, further requests for it queue on the TBE; responses (acks, fetch
// and discovery replies) are routed straight to the TBE. TBEs are pooled
// and hold no closures: the request's fields are copied in at start and
// the pending continuation is a tbeCont.
//
//stash:tileowned
type dirTBE struct {
	block mem.Block

	// The request being served, copied out of the triggering Msg (which is
	// released back to the pool at start).
	reqType MsgType
	reqFrom int
	reqData uint64
	reqHave bool

	// Response collection.
	waitAcks    int
	gotDirty    bool
	dirtyData   uint64
	retained    int // core that kept a Shared copy after Fetch/Discover, or -1
	anyFound    bool
	forwarded   bool // the owner already granted the requester (three-hop mode)
	unblocks    int  // forwarded-grant arrivals reported by requesters
	wantUnblock bool // finish as soon as the requester's unblock arrives

	// Continuation state.
	cont      tbeCont
	alloc     tbeAlloc
	line      *cacheLine  // the block's (or victim's) LLC line
	entry     *core.Entry // directory entry under service (serveTracked)
	owner     int
	wasSharer bool
	parent    *dirTBE // request TBE that a recall/eviction sub-transaction resumes

	// FIFO of requests queued behind this transaction, chained through
	// Msg.next. The successor TBE inherits the remainder at finish.
	qhead, qtail *Msg
	qlen         int
}

// Bank is one tile's slice of the shared machinery: an inclusive LLC bank,
// the co-located directory slice, and the controller that runs coherence
// transactions for the blocks interleaved onto it.
//
//stash:tileowned
type Bank struct {
	id  int
	fab *Fabric
	dir core.Directory
	llc *cache.Cache

	tbes    *blockTable[*dirTBE]
	tbeFree []*dirTBE
	tbeUse  int
	tbeHigh int

	// Long-lived callbacks, bound once at construction so the hot path
	// never allocates a closure or method value.
	busyFn       func(mem.Block) bool
	llcSkipFn    func(*cacheLine) bool
	startFn      func(any)
	memReadFn    func(any)
	fillRetryFn  func(any)
	allocRetryFn func(any)

	stats BankStats
}

// BankStats counts one home bank's directory-controller activity.
type BankStats struct {
	GetS, GetM, Puts stats.Counter // requests handled, by kind
	// InvsSent counts invalidations sent, by reason.
	InvsSent               [ReasonLLCEvict + 1]stats.Counter
	FetchesSent            stats.Counter // owner fetches (three-hop forwards included)
	DiscoveryBroadcasts    stats.Counter // hidden-block discovery rounds
	DiscoveryProbesSent    stats.Counter
	DiscoveryFound         stats.Counter // rounds that found a private copy
	DiscoveryStale         stats.Counter // rounds that found none
	HiddenSet              stats.Counter // LLC hidden bits set by stash evictions
	HiddenCleared          stats.Counter
	LLCEvictRecall         stats.Counter   // LLC victims with a directory entry
	LLCEvictHidden         stats.Counter   // LLC victims with the hidden bit set
	LLCEvictUntracked      stats.Counter   // LLC victims neither tracked nor hidden
	AllocRetries           stats.Counter   // blocked LLC-victim or entry allocations retried
	BroadcastInvalidations stats.Counter   // overflowed entries invalidated by broadcast
	QueueDepth             stats.Histogram // queue length behind a busy block, per queued request
}

// NewBank builds bank id with its directory slice and LLC bank. Its
// transaction table starts at an L1's size and grows with the bank's load.
func NewBank(id int, fab *Fabric, dir core.Directory, llcCfg cache.Config) (*Bank, error) {
	llc, err := cache.New(llcCfg)
	if err != nil {
		return nil, err
	}
	mshrs := fab.Params.MSHRs
	if mshrs < 1 {
		mshrs = 1
	}
	b := &Bank{
		id:  id,
		fab: fab,
		dir: dir,
		llc: llc,
		// Sizing for the worst case (every core's misses landing on one
		// bank) would give each bank of a 256-core machine 2,048 slots it
		// never fills.
		tbes: newBlockTable[*dirTBE](2 * (mshrs + 1)),
	}
	b.busyFn = b.busy
	b.llcSkipFn = func(ln *cacheLine) bool { return ln.Valid() && b.busy(ln.Block) }
	b.startFn = func(arg any) { b.runStart(arg.(*dirTBE)) }
	b.memReadFn = func(arg any) {
		tbe := arg.(*dirTBE)
		tbe.line.Data = b.fab.Memory.Read(tbe.block)
		b.dirPhase(tbe, tbe.line)
	}
	b.fillRetryFn = func(arg any) { b.fillFromMemory(arg.(*dirTBE)) }
	b.allocRetryFn = func(arg any) { b.allocEntry(arg.(*dirTBE)) }
	return b, nil
}

// Stats returns the bank's counters.
//
//stash:hotpath
func (bk *Bank) Stats() *BankStats { return &bk.stats }

// LLC exposes the LLC bank (read-only use: audits, examples).
//
//stash:hotpath
func (bk *Bank) LLC() *cache.Cache { return bk.llc }

// Directory exposes the directory slice.
//
//stash:hotpath
func (bk *Bank) Directory() core.Directory { return bk.dir }

//stash:hotpath
func (bk *Bank) node() noc.NodeID { return noc.NodeID(bk.id) }

// sendCore routes m to core's tile; the mesh takes ownership.
//
//stash:transfer
//stash:hotpath
func (bk *Bank) sendCore(coreID int, m *Msg) {
	m.From = -1
	bk.fab.sendToCore(bk.node(), coreID, m)
}

// busy reports whether block b has an in-flight transaction; the directory
// organizations use it to skip victims they cannot touch.
//
//stash:hotpath
func (bk *Bank) busy(b mem.Block) bool {
	return bk.tbes.has(b)
}

// tbePoolStats reports the bank's live TBE count and high-water mark.
//
//stash:hotpath
func (bk *Bank) tbePoolStats() (inUse, highWater int) { return bk.tbeUse, bk.tbeHigh }

// addSharer records a sharer under the configured entry format (full-map
// or limited-pointer).
//
//stash:hotpath
func (bk *Bank) addSharer(e *core.Entry, c int) {
	e.AddSharer(c, bk.fab.Params.PointerLimit)
}

// sendEntryInvs invalidates every copy entry may cover: the exact sharers
// for a precise entry, or a broadcast to every core (except skip, -1 for
// none) when the entry overflowed its pointers. It returns the number of
// acks to expect.
//
//stash:hotpath
func (bk *Bank) sendEntryInvs(entry *core.Entry, b mem.Block, reason InvReason, skip int) int {
	if entry.Overflowed {
		bk.stats.BroadcastInvalidations.Inc()
		n := 0
		for c := 0; c < bk.fab.Params.Cores; c++ {
			if c == skip {
				continue
			}
			bk.stats.InvsSent[reason].Inc()
			inv := bk.fab.newMsg(MsgInv, b)
			inv.Reason = reason
			bk.sendCore(c, inv)
			n++
		}
		return n
	}
	n := 0
	//stash:ignore hotpath ForEach does not retain the closure; it stays on the stack
	entry.Sharers.ForEach(func(c int) {
		if c == skip {
			return
		}
		bk.stats.InvsSent[reason].Inc()
		inv := bk.fab.newMsg(MsgInv, b)
		inv.Reason = reason
		bk.sendCore(c, inv)
		n++
	})
	return n
}

// deliver accepts a message from the network. Requests serialize per block;
// responses are routed to the waiting transaction. The bank owns incoming
// messages from here on: responses are released at the end of this call,
// requests either start a transaction (released inside start) or queue on
// the busy TBE until dequeued.
//
//stash:hotpath
func (bk *Bank) deliver(m *Msg) {
	if m.Type.Request() {
		if tbe, ok := bk.tbes.get(m.Block); ok {
			if bk.fab.pool.poison && m.free {
				panic(fmt.Sprintf("coherence: bank %d queueing a released message %v", bk.id, m))
			}
			if bk.fab.pool.poison && (m.next != nil || tbe.qtail == m) {
				panic(fmt.Sprintf("coherence: bank %d re-queueing an already-queued message %v", bk.id, m))
			}
			if tbe.qtail == nil {
				tbe.qhead = m
			} else {
				tbe.qtail.next = m
			}
			tbe.qtail = m
			tbe.qlen++
			bk.stats.QueueDepth.Observe(int64(tbe.qlen))
			return
		}
		bk.start(m)
		return
	}
	// Response: route to the TBE.
	tbe, ok := bk.tbes.get(m.Block)
	if m.Type == MsgUnblock {
		if !ok {
			panic(fmt.Sprintf("coherence: bank %d got %v with no open transaction", bk.id, m))
		}
		tbe.unblocks++
		bk.fab.releaseMsg(m)
		if tbe.wantUnblock {
			tbe.wantUnblock = false
			bk.finish(tbe)
		}
		return
	}
	if !ok || tbe.waitAcks == 0 {
		panic(fmt.Sprintf("coherence: bank %d got response %v with no waiting transaction", bk.id, m))
	}
	if m.HasData && m.Dirty {
		tbe.gotDirty = true
		tbe.dirtyData = m.Data
	}
	if m.Retained {
		tbe.retained = m.From
	}
	if m.Found {
		tbe.anyFound = true
	}
	if m.Forwarded {
		tbe.forwarded = true
	}
	bk.fab.releaseMsg(m)
	tbe.waitAcks--
	if tbe.waitAcks == 0 {
		bk.runCont(tbe)
	}
}

// start claims the block's TBE, copies the request out of m (releasing it)
// and, after the bank access latency, runs the transaction.
//
//stash:hotpath
func (bk *Bank) start(m *Msg) *dirTBE {
	tbe := bk.newTBE(m.Block)
	tbe.reqType = m.Type
	tbe.reqFrom = m.From
	tbe.reqData = m.Data
	tbe.reqHave = m.HaveLine
	bk.fab.releaseMsg(m)
	bk.fab.Engine.AfterArg(bk.fab.Params.BankLatency, "bank.start", bk.startFn, tbe)
	return tbe
}

// runStart is the bank.start event body.
//
//stash:hotpath
func (bk *Bank) runStart(tbe *dirTBE) {
	switch tbe.reqType {
	case MsgGetS, MsgGetM:
		bk.handleGet(tbe)
	case MsgPutS, MsgPutE, MsgPutM:
		bk.handlePut(tbe)
		bk.finish(tbe)
	default:
		panic(fmt.Sprintf("coherence: bank %d cannot start %s for block %#x", bk.id, tbe.reqType, uint64(tbe.block)))
	}
}

// newTBE claims a pooled TBE for block b. The caller must hand the TBE to a
// sink — bk.wait, an engine park (AfterArg), or bk.finish — on every path.
//
//stash:acquire
//stash:hotpath
func (bk *Bank) newTBE(b mem.Block) *dirTBE {
	if bk.busy(b) {
		panic(fmt.Sprintf("coherence: bank %d double transaction on block %#x", bk.id, uint64(b)))
	}
	var tbe *dirTBE
	if n := len(bk.tbeFree); n > 0 {
		tbe = bk.tbeFree[n-1]
		bk.tbeFree = bk.tbeFree[:n-1]
		*tbe = dirTBE{}
	} else {
		tbe = &dirTBE{} //stash:ignore hotpath pool warm-up; amortized away by reuse
	}
	tbe.block = b
	tbe.retained = -1
	bk.tbeUse++
	if bk.tbeUse > bk.tbeHigh {
		bk.tbeHigh = bk.tbeUse
	}
	bk.tbes.put(b, tbe)
	return tbe
}

// finish releases the TBE and pumps the block's request queue.
//
//stash:release
//stash:hotpath
func (bk *Bank) finish(tbe *dirTBE) {
	b := tbe.block
	if cur, ok := bk.tbes.get(b); !ok || cur != tbe {
		panic(fmt.Sprintf("coherence: bank %d finishing stale transaction for %#x", bk.id, uint64(b)))
	}
	bk.tbes.del(b)
	qhead, qtail, qlen := tbe.qhead, tbe.qtail, tbe.qlen
	bk.tbeUse--
	bk.tbeFree = append(bk.tbeFree, tbe)
	if qlen == 0 {
		return
	}
	next := qhead
	qhead = next.next
	next.next = nil
	qlen--
	if qhead == nil {
		qtail = nil
	}
	// Claim the successor's TBE synchronously: leaving even a one-cycle
	// gap would let an arriving request or a victim selection grab the
	// block first. The successor's handler still runs after BankLatency,
	// and it inherits the rest of the queue.
	succ := bk.start(next)
	succ.qhead, succ.qtail, succ.qlen = qhead, qtail, qlen
}

// finishOnUnblock finishes the transaction once the requester has confirmed
// its forwarded grant (which may already have happened).
//
//stash:hotpath
func (bk *Bank) finishOnUnblock(tbe *dirTBE) {
	if tbe.unblocks > 0 {
		bk.finish(tbe)
		return
	}
	tbe.wantUnblock = true
}

// wait arms the TBE to collect n responses, then run cont. n == 0 runs the
// continuation immediately. The response path owns the TBE from here on.
//
//stash:transfer
//stash:hotpath
func (bk *Bank) wait(tbe *dirTBE, n int, cont tbeCont) {
	tbe.gotDirty = false
	tbe.retained = -1
	tbe.anyFound = false
	tbe.forwarded = false
	tbe.cont = cont
	if n == 0 {
		bk.runCont(tbe)
		return
	}
	tbe.waitAcks = n
}

// runCont dispatches the TBE's armed continuation.
//
//stash:hotpath
func (bk *Bank) runCont(tbe *dirTBE) {
	switch tbe.cont {
	case contFwdGetS:
		bk.fwdGetSDone(tbe)
	case contFetch:
		bk.fetchDone(tbe)
	case contFwdGetM:
		bk.fwdGetMDone(tbe)
	case contInvOwner:
		bk.invOwnerDone(tbe)
	case contInvSharers:
		bk.invSharersDone(tbe)
	case contHidden:
		bk.hiddenDone(tbe)
	case contRecall:
		bk.recallDone(tbe)
	case contEvictRecall:
		bk.evictRecallDone(tbe)
	case contEvictHidden:
		bk.evictHiddenDone(tbe)
	default:
		panic(fmt.Sprintf("coherence: bank %d TBE for %#x has no continuation", bk.id, uint64(tbe.block)))
	}
}

// ---------------------------------------------------------------------------
// GetS / GetM
// ---------------------------------------------------------------------------

//stash:hotpath
func (bk *Bank) handleGet(tbe *dirTBE) {
	if tbe.reqType == MsgGetS {
		bk.stats.GetS.Inc()
	} else {
		bk.stats.GetM.Inc()
	}
	if line := bk.llc.Lookup(tbe.block); line != nil {
		bk.dirPhase(tbe, line)
		return
	}
	bk.fillFromMemory(tbe)
}

// fillFromMemory brings tbe.block into the LLC: it evicts a victim
// (recalling or discovering its private copies as inclusion demands) and
// fetches the block from memory, continuing into dirPhase.
//
//stash:hotpath
func (bk *Bank) fillFromMemory(tbe *dirTBE) {
	victim := bk.llc.Victim(tbe.block, bk.llcSkipFn)
	if victim == nil {
		// Every candidate way has an in-flight transaction; retry.
		bk.stats.AllocRetries.Inc()
		if bk.fab.retryHook != nil {
			bk.fab.retryHook(ParkedRetry{bank: bk, kind: RetryLLCVictim, tbe: tbe})
			return
		}
		bk.fab.Engine.AfterArg(bk.fab.Params.RetryDelay, "bank.llc-victim-retry", bk.fillRetryFn, tbe)
		return
	}
	tbe.line = victim
	if !victim.Valid() {
		bk.claimAndFetch(tbe)
		return
	}
	bk.evictLLCVictim(tbe, victim)
}

// claimAndFetch claims tbe.line for tbe.block immediately — so concurrent
// fills cannot steal it; the TBE keeps everyone away from the garbage data
// — and reads the block from memory.
//
//stash:hotpath
func (bk *Bank) claimAndFetch(tbe *dirTBE) {
	bk.llc.Install(tbe.line, tbe.block, mem.Shared, 0)
	bk.fab.Engine.AfterArg(bk.fab.Params.MemLatency, "bank.memread", bk.memReadFn, tbe)
}

// evictLLCVictim enforces inclusion for an LLC victim: tracked copies are
// recalled, hidden copies are discovered and invalidated, and dirty data is
// written back to memory. The fill continues once the line may be reused.
//
//stash:hotpath
func (bk *Bank) evictLLCVictim(tbe *dirTBE, victim *cacheLine) {
	vb := victim.Block
	if entry := bk.dir.Probe(vb); entry != nil {
		// Back-invalidate every tracked copy.
		bk.stats.LLCEvictRecall.Inc()
		sub := bk.newTBE(vb)
		sub.parent = tbe
		sub.line = victim
		n := bk.sendEntryInvs(entry, vb, ReasonLLCEvict, -1)
		bk.wait(sub, n, contEvictRecall)
		return
	}
	if victim.Flags&flagHidden != 0 {
		// A hidden private copy may exist anywhere: discover and kill it.
		bk.stats.LLCEvictHidden.Inc()
		sub := bk.newTBE(vb)
		sub.parent = tbe
		sub.line = victim
		bk.discover(vb, DiscoverInvalidate, ReasonLLCEvict, -1)
		bk.wait(sub, bk.fab.Params.Cores, contEvictHidden)
		return
	}
	bk.stats.LLCEvictUntracked.Inc()
	if victim.State == mem.Modified {
		bk.fab.Memory.Write(vb, victim.Data)
	}
	bk.claimAndFetch(tbe)
}

// finishEvict folds any recalled dirty data into the victim line and writes
// a modified victim back to memory. The line is reused by the caller; the
// eviction itself is counted by Install.
//
//stash:hotpath
func (bk *Bank) finishEvict(sub *dirTBE) {
	victim := sub.line
	if sub.gotDirty {
		victim.Data = sub.dirtyData
		victim.State = mem.Modified
	}
	if victim.State == mem.Modified {
		bk.fab.Memory.Write(sub.block, victim.Data)
	}
}

//stash:hotpath
func (bk *Bank) evictRecallDone(sub *dirTBE) {
	bk.finishEvict(sub)
	bk.dir.Remove(sub.block)
	parent := sub.parent
	bk.finish(sub)
	bk.claimAndFetch(parent)
}

//stash:hotpath
func (bk *Bank) evictHiddenDone(sub *dirTBE) {
	if sub.anyFound {
		bk.stats.DiscoveryFound.Inc()
	} else {
		bk.stats.DiscoveryStale.Inc()
	}
	bk.stats.HiddenCleared.Inc()
	bk.finishEvict(sub)
	parent := sub.parent
	bk.finish(sub)
	bk.claimAndFetch(parent)
}

// discover broadcasts a discovery probe for block b to every core except
// skip (-1 probes everyone).
//
//stash:hotpath
func (bk *Bank) discover(b mem.Block, kind DiscoverKind, reason InvReason, skip int) {
	bk.stats.DiscoveryBroadcasts.Inc()
	for c := 0; c < bk.fab.Params.Cores; c++ {
		if c == skip {
			continue
		}
		bk.stats.DiscoveryProbesSent.Inc()
		probe := bk.fab.newMsg(MsgDiscover, b)
		probe.Kind = kind
		probe.Reason = reason
		bk.sendCore(c, probe)
	}
}

// dirPhase consults the directory once the block is LLC-resident.
//
//stash:hotpath
func (bk *Bank) dirPhase(tbe *dirTBE, line *cacheLine) {
	tbe.line = line
	if entry := bk.dir.Lookup(tbe.block); entry != nil {
		bk.serveTracked(tbe, line, entry)
		return
	}
	if line.Flags&flagHidden != 0 {
		bk.serveHidden(tbe)
		return
	}
	// Untracked, not hidden: no private copies exist anywhere.
	tbe.alloc = allocGrantFresh
	bk.allocEntry(tbe)
}

// serveHidden runs the stash directory's discovery flow: the LLC line says
// an untracked private copy may exist, so probe all other cores, fold any
// dirty data into the LLC, rebuild tracking and only then serve the
// request.
//
//stash:hotpath
func (bk *Bank) serveHidden(tbe *dirTBE) {
	kind := DiscoverInvalidate
	if tbe.reqType == MsgGetS {
		kind = DiscoverDowngrade
	}
	bk.discover(tbe.block, kind, ReasonDemand, tbe.reqFrom)
	bk.wait(tbe, bk.fab.Params.Cores-1, contHidden)
}

//stash:hotpath
func (bk *Bank) hiddenDone(tbe *dirTBE) {
	line := tbe.line
	line.Flags &^= flagHidden
	bk.stats.HiddenCleared.Inc()
	if tbe.anyFound {
		bk.stats.DiscoveryFound.Inc()
	} else {
		// The hidden copy was silently gone; the bit was stale.
		bk.stats.DiscoveryStale.Inc()
	}
	if tbe.gotDirty {
		line.Data = tbe.dirtyData
		line.State = mem.Modified
	}
	tbe.alloc = allocHidden
	bk.allocEntry(tbe)
}

// allocDone continues a request once allocEntry produced its entry.
//
//stash:hotpath
func (bk *Bank) allocDone(tbe *dirTBE, entry *core.Entry) {
	if tbe.alloc == allocHidden && tbe.reqType == MsgGetS && tbe.retained >= 0 {
		// The hidden owner was downgraded and kept a Shared copy.
		bk.addSharer(entry, tbe.retained)
		bk.addSharer(entry, tbe.reqFrom)
		entry.Owned = false
		g := bk.fab.newMsg(MsgDataS, tbe.block)
		g.Data, g.HasData = tbe.line.Data, true
		bk.sendCore(tbe.reqFrom, g)
	} else {
		bk.grantFresh(tbe, entry)
	}
	bk.finish(tbe)
}

// grantFresh grants a block with no other live copies: Exclusive for reads
// (the MESI E optimization), Modified for writes.
//
//stash:hotpath
func (bk *Bank) grantFresh(tbe *dirTBE, entry *core.Entry) {
	entry.Sharers.Add(tbe.reqFrom)
	entry.Owned = true
	t := MsgDataE
	if tbe.reqType == MsgGetM {
		t = MsgDataM
	}
	g := bk.fab.newMsg(t, tbe.block)
	g.Data, g.HasData = tbe.line.Data, true
	bk.sendCore(tbe.reqFrom, g)
}

// serveTracked serves a request for a block with a live directory entry.
//
//stash:hotpath
func (bk *Bank) serveTracked(tbe *dirTBE, line *cacheLine, entry *core.Entry) {
	r := tbe.reqFrom
	tbe.entry = entry
	switch {
	case tbe.reqType == MsgGetS && entry.Owned:
		owner := entry.Owner()
		if owner == r {
			// Only reachable with silent clean evictions: the owner
			// silently dropped its Exclusive copy and re-reads.
			g := bk.fab.newMsg(MsgDataE, tbe.block)
			g.Data, g.HasData = line.Data, true
			bk.sendCore(r, g)
			bk.finish(tbe)
			return
		}
		tbe.owner = owner
		if bk.fab.Params.ThreeHopForwarding {
			bk.stats.FetchesSent.Inc()
			fw := bk.fab.newMsg(MsgFwdGetS, tbe.block)
			fw.Requester = r
			bk.sendCore(owner, fw)
			bk.wait(tbe, 1, contFwdGetS)
			return
		}
		bk.stats.FetchesSent.Inc()
		bk.sendCore(owner, bk.fab.newMsg(MsgFetch, tbe.block))
		bk.wait(tbe, 1, contFetch)

	case tbe.reqType == MsgGetS: // shared entry
		bk.addSharer(entry, r)
		g := bk.fab.newMsg(MsgDataS, tbe.block)
		g.Data, g.HasData = line.Data, true
		bk.sendCore(r, g)
		bk.finish(tbe)

	case entry.Owned: // GetM
		owner := entry.Owner()
		if owner == r {
			// Silent clean evictions only: re-acquire for writing.
			g := bk.fab.newMsg(MsgDataM, tbe.block)
			g.Data, g.HasData = line.Data, true
			bk.sendCore(r, g)
			bk.finish(tbe)
			return
		}
		tbe.owner = owner
		bk.stats.InvsSent[ReasonDemand].Inc()
		if bk.fab.Params.ThreeHopForwarding {
			fw := bk.fab.newMsg(MsgFwdGetM, tbe.block)
			fw.Requester = r
			bk.sendCore(owner, fw)
			bk.wait(tbe, 1, contFwdGetM)
			return
		}
		inv := bk.fab.newMsg(MsgInv, tbe.block)
		inv.Reason = ReasonDemand
		bk.sendCore(owner, inv)
		bk.wait(tbe, 1, contInvOwner)

	default: // GetM on a shared entry
		tbe.wasSharer = !entry.Overflowed && entry.Sharers.Has(r)
		n := bk.sendEntryInvs(entry, tbe.block, ReasonDemand, r)
		bk.wait(tbe, n, contInvSharers)
	}
}

// fwdGetSDone finishes a three-hop GetS once the owner answered.
//
//stash:hotpath
func (bk *Bank) fwdGetSDone(tbe *dirTBE) {
	line, entry, owner, r := tbe.line, tbe.entry, tbe.owner, tbe.reqFrom
	if tbe.gotDirty {
		line.Data = tbe.dirtyData
		line.State = mem.Modified
	}
	bk.addSharer(entry, r)
	if tbe.forwarded {
		// The owner granted a Shared copy directly; it keeps its own copy
		// only when it reported Retained. Hold the block until the
		// requester confirms the grant landed.
		if tbe.retained != owner {
			entry.Sharers.Remove(owner)
		}
		entry.Owned = false
		bk.finishOnUnblock(tbe)
	} else {
		// Owner had nothing (silent eviction); serve from the LLC as in
		// the two-hop flow.
		entry.Sharers.Remove(owner)
		entry.Owned = true
		g := bk.fab.newMsg(MsgDataE, tbe.block)
		g.Data, g.HasData = line.Data, true
		bk.sendCore(r, g)
		bk.finish(tbe)
	}
}

// fetchDone finishes a two-hop GetS once the owner answered the Fetch.
//
//stash:hotpath
func (bk *Bank) fetchDone(tbe *dirTBE) {
	line, entry, owner, r := tbe.line, tbe.entry, tbe.owner, tbe.reqFrom
	if tbe.gotDirty {
		line.Data = tbe.dirtyData
		line.State = mem.Modified
	}
	if tbe.retained == owner {
		entry.Owned = false
		bk.addSharer(entry, r)
		g := bk.fab.newMsg(MsgDataS, tbe.block)
		g.Data, g.HasData = line.Data, true
		bk.sendCore(r, g)
	} else {
		// The owner's copy was already on its way out: the requester
		// becomes the sole, exclusive holder.
		entry.Sharers.Remove(owner)
		entry.Sharers.Add(r)
		entry.Owned = true
		g := bk.fab.newMsg(MsgDataE, tbe.block)
		g.Data, g.HasData = line.Data, true
		bk.sendCore(r, g)
	}
	bk.finish(tbe)
}

// fwdGetMDone finishes a three-hop GetM once the owner answered.
//
//stash:hotpath
func (bk *Bank) fwdGetMDone(tbe *dirTBE) {
	line, entry, r := tbe.line, tbe.entry, tbe.reqFrom
	if tbe.gotDirty {
		line.Data = tbe.dirtyData
		line.State = mem.Modified
	}
	entry.Sharers.Clear()
	entry.Sharers.Add(r)
	entry.Owned = true
	if tbe.forwarded {
		bk.finishOnUnblock(tbe)
	} else {
		g := bk.fab.newMsg(MsgDataM, tbe.block)
		g.Data, g.HasData = line.Data, true
		bk.sendCore(r, g)
		bk.finish(tbe)
	}
}

// invOwnerDone finishes a two-hop GetM once the owner acknowledged.
//
//stash:hotpath
func (bk *Bank) invOwnerDone(tbe *dirTBE) {
	line, entry, r := tbe.line, tbe.entry, tbe.reqFrom
	if tbe.gotDirty {
		line.Data = tbe.dirtyData
		line.State = mem.Modified
	}
	entry.Sharers.Clear()
	entry.Sharers.Add(r)
	entry.Owned = true
	g := bk.fab.newMsg(MsgDataM, tbe.block)
	g.Data, g.HasData = line.Data, true
	bk.sendCore(r, g)
	bk.finish(tbe)
}

// invSharersDone finishes a GetM on a shared entry once every sharer acked.
//
//stash:hotpath
func (bk *Bank) invSharersDone(tbe *dirTBE) {
	entry, r := tbe.entry, tbe.reqFrom
	entry.Sharers.Clear()
	entry.Overflowed = false
	entry.Sharers.Add(r)
	entry.Owned = true
	grant := bk.fab.newMsg(MsgDataM, tbe.block)
	if !(tbe.reqHave && tbe.wasSharer) {
		grant.Data, grant.HasData = tbe.line.Data, true
	}
	bk.sendCore(r, grant)
	bk.finish(tbe)
}

// allocEntry obtains a directory entry for tbe.block, recalling or stashing
// a victim as the organization demands, then runs allocDone.
//
//stash:hotpath
func (bk *Bank) allocEntry(tbe *dirTBE) {
	res := bk.dir.Allocate(tbe.block, bk.busyFn)
	switch res.Outcome {
	case core.AllocOK:
		bk.allocDone(tbe, res.Entry)

	case core.AllocStashed:
		// The dropped entry's block becomes hidden: flag its LLC line so a
		// later directory miss knows a private copy may exist.
		line := bk.llc.Probe(res.Stashed.Block)
		if line == nil {
			panic(fmt.Sprintf("coherence: bank %d stashed block %#x that is not LLC-resident", bk.id, uint64(res.Stashed.Block)))
		}
		line.Flags |= flagHidden
		bk.stats.HiddenSet.Inc()
		bk.allocDone(tbe, res.Entry)

	case core.AllocNeedsRecall:
		victim := res.Victim
		vb := victim.Block
		sub := bk.newTBE(vb)
		sub.parent = tbe
		n := bk.sendEntryInvs(victim, vb, ReasonRecall, -1)
		bk.wait(sub, n, contRecall)

	case core.AllocBlocked:
		bk.stats.AllocRetries.Inc()
		if bk.fab.retryHook != nil {
			bk.fab.retryHook(ParkedRetry{bank: bk, kind: RetryAlloc, tbe: tbe})
			return
		}
		bk.fab.Engine.AfterArg(bk.fab.Params.RetryDelay, "bank.alloc-retry", bk.allocRetryFn, tbe)
	}
}

// recallDone finishes a directory-entry recall and retries the allocation
// in the same event: the freed slot cannot be stolen before we run again.
//
//stash:hotpath
func (bk *Bank) recallDone(sub *dirTBE) {
	vb := sub.block
	if sub.gotDirty {
		vline := bk.llc.Probe(vb)
		if vline == nil {
			panic(fmt.Sprintf("coherence: bank %d recalled block %#x that is not LLC-resident", bk.id, uint64(vb)))
		}
		vline.Data = sub.dirtyData
		vline.State = mem.Modified
	}
	bk.dir.Remove(vb)
	parent := sub.parent
	bk.finish(sub)
	bk.allocEntry(parent)
}

// ---------------------------------------------------------------------------
// Puts
// ---------------------------------------------------------------------------

// handlePut retires an L1 eviction notification. Races with recalls,
// fetches and LLC evictions make several "stale" shapes legal; each is
// acknowledged and folded in as the rules below describe.
//
//stash:hotpath
func (bk *Bank) handlePut(tbe *dirTBE) {
	bk.stats.Puts.Inc()
	b := tbe.block
	r := tbe.reqFrom
	entry := bk.dir.Probe(b)
	line := bk.llc.Probe(b)

	switch tbe.reqType {
	case MsgPutS:
		if entry != nil && entry.Overflowed {
			// Limited-pointer overflow: the sharer set is inexact, so the
			// departure cannot be recorded; the entry stays conservative
			// until a broadcast invalidation rebuilds it.
		} else if entry != nil && entry.Sharers.Has(r) {
			entry.Sharers.Remove(r)
			if entry.Sharers.Empty() {
				bk.dir.Remove(b)
			} else if entry.Sharers.Count() == 1 {
				// A single Shared holder remains; it does not own the
				// block (no E/M grant happened), so Owned stays false.
				entry.Owned = false
			}
		} else if entry == nil && line != nil && line.Flags&flagHidden != 0 {
			// The hidden (singleton-Shared) copy retired itself.
			line.Flags &^= flagHidden
			bk.stats.HiddenCleared.Inc()
		}

	case MsgPutE:
		if entry != nil && entry.Owner() == r {
			bk.dir.Remove(b)
		} else if entry != nil && entry.Overflowed {
			// As for PutS: no precise removal from an overflowed entry.
		} else if entry != nil && entry.Sharers.Has(r) {
			// Downgraded while the PutE was in flight; treat as PutS.
			entry.Sharers.Remove(r)
			if entry.Sharers.Empty() {
				bk.dir.Remove(b)
			}
		} else if entry == nil && line != nil && line.Flags&flagHidden != 0 {
			line.Flags &^= flagHidden
			bk.stats.HiddenCleared.Inc()
		}

	case MsgPutM:
		switch {
		case entry != nil && entry.Owner() == r:
			if line == nil {
				panic(fmt.Sprintf("coherence: bank %d PutM for tracked block %#x with no LLC line", bk.id, uint64(b)))
			}
			line.Data = tbe.reqData
			line.State = mem.Modified
			bk.dir.Remove(b)
		case entry == nil && line != nil && line.Flags&flagHidden != 0:
			line.Data = tbe.reqData
			line.State = mem.Modified
			line.Flags &^= flagHidden
			bk.stats.HiddenCleared.Inc()
		default:
			// Stale: an Inv/Fetch already collected this data, or the LLC
			// line itself was evicted (which recalled us first). Drop it.
		}
	}
	bk.sendCore(r, bk.fab.newMsg(MsgPutAck, b))
}
