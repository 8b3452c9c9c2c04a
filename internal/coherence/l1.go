package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
)

// cacheLine aliases cache.Line for brevity inside this package.
type cacheLine = cache.Line

// flagReserved marks an L1/L2 way claimed by an in-flight fill so victim
// selection skips it. It lives in the line's Flags word (replacing the old
// reserved-line maps); Install and Invalidate clear Flags, so the bit must
// be set after an eviction and cleared explicitly when a fill lands on a
// still-valid line.
const flagReserved uint32 = 1 << 1

// pendingAccess is an access the L1 could not service immediately: either
// coalesced behind an outstanding miss to the same block (an MSHR hit) or
// stalled because every way of its set is reserved.
type pendingAccess struct {
	access mem.Access
	done   func()
}

// l1TBE tracks one outstanding demand miss (one MSHR). TBEs are pooled:
// the waiters slice keeps its capacity across reuses, so steady-state
// coalescing does not allocate.
//
//stash:tileowned
type l1TBE struct {
	block   mem.Block
	write   bool
	upgrade bool       // the core held a Shared copy when it issued GetM
	sawInv  bool       // that copy was invalidated while the upgrade was in flight
	way     *cacheLine // reserved destination L1 way
	l2way   *cacheLine // reserved destination L2 way (nil without an L2)
	done    func()
	access  mem.Access      // the triggering access (local L2 fills complete it)
	issued  uint64          // cycle the miss was issued, for latency stats
	waiters []pendingAccess // accesses coalesced behind this miss
}

// evictBuf keeps a victim's payload alive between Put and PutAck so the L1
// can still answer Inv/Fetch/Discover for a block whose writeback is in
// flight.
type evictBuf struct {
	data  uint64
	dirty bool
}

// L1 is a private per-core data cache controller speaking MESI to the
// directory banks. It supports multiple outstanding misses (one TBE per
// block, bounded by the processor's MSHR count), coalesces same-block
// accesses behind an in-flight miss, and answers directory-initiated
// traffic at any time — including for blocks parked in its eviction
// buffers — which is what keeps the protocol deadlock-free.
//
//stash:tileowned
type L1 struct {
	id  int
	fab *Fabric

	cache   *cache.Cache
	l2      *cache.Cache // optional private L2, inclusive of the L1
	tbes    *blockTable[*l1TBE]
	tbeFree []*l1TBE
	stalled []pendingAccess // accesses whose set had no usable way
	// stalledSpare is the second half of a double buffer: replays drain
	// into it while fresh stalls append to a clean slice, so the retry
	// sweep reuses both backing arrays instead of reallocating.
	stalledSpare []pendingAccess
	evict        *blockTable[evictBuf]

	// invalidatedBy remembers blocks this L1 lost to conflict-induced
	// invalidations, so a later miss on them can be classified as a
	// coverage miss (the metric the stash directory attacks).
	invalidatedBy *blockTable[InvReason]

	// Long-lived callbacks (no per-event closures on the hot path).
	requestFn func(any)             // sends the TBE's demand request
	l2FillFn  func(any)             // completes a local L2-hit fill
	skipFn    func(*cacheLine) bool // victim-selection skip predicate

	stats L1Stats
}

// L1Stats counts one private-cache controller's activity. Every counter
// has a reader: system.collect, a test or an example.
type L1Stats struct {
	Loads, Stores stats.Counter
	// Hits and Misses classify accesses: a private-L2 hit is a hit, an
	// upgrade of a Shared copy a miss.
	Hits, Misses   stats.Counter
	CoverageMisses stats.Counter // misses on blocks lost to a recall or LLC eviction
	// Invalidations counts Invs (and three-hop FwdGetMs) that found a
	// copy or an eviction-buffer entry, by reason.
	Invalidations [ReasonLLCEvict + 1]stats.Counter
	SpuriousInvs  stats.Counter // Invs that found no copy
	Writebacks    stats.Counter
	MSHRCoalesced stats.Counter // accesses merged into an in-flight miss
	MSHRStalls    stats.Counter // accesses parked because every way of their set was busy
	L2Hits        stats.Counter // private-L2 hits on an L1 miss
	L2Misses      stats.Counter
	MissLatency   stats.Histogram // cycles from issue to fill, per coherence miss
}

// NewL1 builds the private-cache controller for core id: the L1 tag array
// plus, when l2cfg is non-nil, an inclusive private L2 behind it. The
// directory then tracks the L2's (superset) contents.
func NewL1(id int, fab *Fabric, cfg cache.Config, l2cfg *cache.Config) (*L1, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	var l2 *cache.Cache
	if l2cfg != nil {
		l2, err = cache.New(*l2cfg)
		if err != nil {
			return nil, err
		}
		if l2.Capacity() < c.Capacity() {
			return nil, fmt.Errorf("coherence: core %d L2 (%d lines) smaller than L1 (%d lines); inclusion impossible",
				id, l2.Capacity(), c.Capacity())
		}
	}
	mshrs := fab.Params.MSHRs
	if mshrs < 1 {
		mshrs = 1
	}
	l1 := &L1{
		id:            id,
		fab:           fab,
		cache:         c,
		l2:            l2,
		tbes:          newBlockTable[*l1TBE](2 * (mshrs + 1)),
		evict:         newBlockTable[evictBuf](8),
		invalidatedBy: newBlockTable[InvReason](16),
	}
	l1.requestFn = func(arg any) {
		tbe := arg.(*l1TBE)
		t := MsgGetS
		if tbe.write {
			t = MsgGetM
		}
		m := l1.fab.newMsg(t, tbe.block)
		m.From = l1.id
		m.HaveLine = tbe.upgrade
		l1.send(m)
	}
	l1.l2FillFn = func(arg any) { l1.completeLocalFill(arg.(*l1TBE)) }
	l1.skipFn = func(ln *cacheLine) bool {
		return ln.Flags&flagReserved != 0 || (ln.Valid() && l1.tbes.has(ln.Block))
	}
	return l1, nil
}

// reset returns the controller to what NewL1 built: empty tag arrays, no
// transaction, stall or eviction in flight, no remembered invalidations,
// zeroed statistics. Live TBEs go back to the free list.
func (l *L1) reset() {
	l.cache.Reset()
	if l.l2 != nil {
		l.l2.Reset()
	}
	l.tbes.forEach(func(_ mem.Block, tbe *l1TBE) { l.freeTBE(tbe) })
	l.tbes.reset()
	l.stalled = l.stalled[:0]
	l.stalledSpare = l.stalledSpare[:0]
	l.evict.reset()
	l.invalidatedBy.reset()
	l.stats = L1Stats{}
}

// Stats returns the L1's counters.
//
//stash:hotpath
func (l *L1) Stats() *L1Stats { return &l.stats }

// Cache exposes the L1 tag array (read-only use: audits, examples).
//
//stash:hotpath
func (l *L1) Cache() *cache.Cache { return l.cache }

// L2 exposes the private L2 tag array, or nil when the hierarchy has none.
//
//stash:hotpath
func (l *L1) L2() *cache.Cache { return l.l2 }

//stash:hotpath
func (l *L1) node() noc.NodeID { return noc.NodeID(l.id) }

// outer returns the private level the directory tracks: the L2 when the
// hierarchy has one, else the L1.
//
//stash:hotpath
func (l *L1) outer() *cache.Cache {
	if l.l2 != nil {
		return l.l2
	}
	return l.cache
}

// newTBE claims a pooled TBE for block b and registers it. The caller must
// hand the TBE to a sink — an engine park (AfterArg) or l.freeTBE — on
// every path.
//
//stash:acquire
//stash:hotpath
func (l *L1) newTBE(b mem.Block) *l1TBE {
	var tbe *l1TBE
	if n := len(l.tbeFree); n > 0 {
		tbe = l.tbeFree[n-1]
		l.tbeFree = l.tbeFree[:n-1]
		w := tbe.waiters[:0]
		*tbe = l1TBE{}
		tbe.waiters = w
	} else {
		tbe = &l1TBE{} //stash:ignore hotpath pool warm-up; amortized away by reuse
	}
	tbe.block = b
	tbe.issued = uint64(l.fab.Engine.Now())
	l.tbes.put(b, tbe)
	return tbe
}

// freeTBE returns a retired TBE to the pool. The caller must already have
// removed it from the table and replayed its waiters.
//
//stash:release
//stash:hotpath
func (l *L1) freeTBE(tbe *l1TBE) {
	tbe.done = nil
	l.tbeFree = append(l.tbeFree, tbe)
}

// Access services one core memory reference and calls done when it
// completes. The processor bounds how many accesses are outstanding (its
// MSHR count); the L1 itself accepts any number, coalescing same-block
// accesses behind the in-flight miss and stalling accesses whose set has
// no usable way until a fill frees one.
//
//stash:hotpath
func (l *L1) Access(a mem.Access, done func()) {
	if a.Write {
		l.stats.Stores.Inc()
	} else {
		l.stats.Loads.Inc()
	}
	l.lookupAndService(a, done)
}

// lookupAndService runs the tag lookup and either completes, coalesces,
// stalls or starts a miss. Replays (coalesced/stalled accesses re-entering
// after a fill) come through here too, so they are not double-counted as
// loads/stores.
//
//stash:hotpath
func (l *L1) lookupAndService(a mem.Access, done func()) {
	b := a.Block()
	if tbe, ok := l.tbes.get(b); ok {
		// MSHR hit: ride the in-flight miss. (Even a load that could hit a
		// Shared line under an upgrade coalesces, keeping the line's state
		// transitions simple.)
		l.stats.MSHRCoalesced.Inc()
		tbe.waiters = append(tbe.waiters, pendingAccess{access: a, done: done})
		return
	}

	if ln := l.cache.Lookup(b); ln != nil {
		switch {
		case !a.Write:
			l.stats.Hits.Inc()
			l.completeLoad(ln, done)
			return
		case ln.State == mem.Modified:
			l.stats.Hits.Inc()
			l.commitStore(ln, done)
			return
		case ln.State == mem.Exclusive:
			// Silent E→M upgrade: invisible to the directory.
			l.stats.Hits.Inc()
			ln.State = mem.Modified
			l.commitStore(ln, done)
			return
		default: // Shared: upgrade via GetM
			l.stats.Misses.Inc()
			var l2way *cacheLine
			if l.l2 != nil {
				l2way = l.l2.Probe(b)
				if l2way == nil {
					panic(fmt.Sprintf("coherence: core %d upgrading block %#x missing from L2", l.id, uint64(b)))
				}
			}
			l.request(b, true, true, ln, l2way, done)
			return
		}
	}

	// L1 missed. The L1 victim may not be a way reserved by another fill
	// or a line with its own transaction (an in-flight upgrade).
	way := l.cache.Victim(b, l.skipFn)
	if way == nil {
		// Every way of the set is spoken for; retry when a fill lands.
		// (Not counted as a miss yet — the replay will classify it.)
		l.stats.MSHRStalls.Inc()
		l.stalled = append(l.stalled, pendingAccess{access: a, done: done})
		return
	}

	// Private L2, when present: an L2 hit is serviced locally.
	var l2way *cacheLine
	if l.l2 != nil {
		if l2ln := l.l2.Lookup(b); l2ln != nil {
			switch {
			case !a.Write, l2ln.State.Owned():
				// Local fill from L2 (a store to an E line upgrades both
				// levels silently). The fill holds a TBE so same-block
				// accesses coalesce instead of starting duplicate fills.
				l.stats.L2Hits.Inc()
				l.stats.Hits.Inc() // hierarchy hit: no coherence traffic
				if a.Write {
					l2ln.State = mem.Modified
				}
				if way.Valid() {
					l.foldIntoL2(way)
				}
				way.Flags |= flagReserved
				tbe := l.newTBE(b)
				tbe.write = a.Write
				tbe.way = way
				tbe.done = done
				tbe.access = a
				l.fab.Engine.AfterArg(l.fab.Params.L2HitLatency, "l1.l2fill", l.l2FillFn, tbe)
				return
			default:
				// Shared in L2, store: upgrade through the directory.
				l.stats.L2Hits.Inc()
				l.stats.Misses.Inc()
				if way.Valid() {
					l.foldIntoL2(way)
				}
				way.Flags |= flagReserved
				l.request(b, true, true, way, l2ln, done)
				return
			}
		}
		// Full miss: an L2 way is needed too.
		l.stats.L2Misses.Inc()
		l2way = l.l2.Victim(b, l.skipFn)
		if l2way == nil {
			l.stats.MSHRStalls.Inc()
			l.stalled = append(l.stalled, pendingAccess{access: a, done: done})
			return
		}
	}

	l.stats.Misses.Inc()
	if _, ok := l.invalidatedBy.get(b); ok {
		l.stats.CoverageMisses.Inc()
		l.invalidatedBy.del(b)
	}
	if l.l2 != nil {
		if way.Valid() {
			l.foldIntoL2(way)
		}
		if l2way.Valid() {
			l.evictL2Line(l2way)
		}
		l2way.Flags |= flagReserved
	} else if way.Valid() {
		l.evictLine(way)
	}
	way.Flags |= flagReserved
	l.request(b, a.Write, false, way, l2way, done)
}

// request opens a miss on b: a TBE holding the reserved fill ways, whose
// GetS (or, for a write, GetM) leaves after the L1 lookup latency.
//
//stash:hotpath
func (l *L1) request(b mem.Block, write, upgrade bool, way, l2way *cacheLine, done func()) {
	tbe := l.newTBE(b)
	tbe.write, tbe.upgrade = write, upgrade
	tbe.way, tbe.l2way = way, l2way
	tbe.done = done
	l.fab.Engine.AfterArg(l.fab.Params.L1HitLatency, "l1.request", l.requestFn, tbe)
}

// completeLocalFill finishes an L2-hit fill: install into the reserved L1
// way unless a snoop raced the fill away (then the access replays as a
// fresh lookup), and replay anything that piled up behind it.
//
//stash:hotpath
func (l *L1) completeLocalFill(tbe *l1TBE) {
	a := tbe.access
	l.tbes.del(tbe.block)
	tbe.way.Flags &^= flagReserved
	cur := l.l2.Probe(tbe.block)
	if cur == nil || (a.Write && cur.State != mem.Modified) {
		l.lookupAndService(a, tbe.done)
	} else {
		l.cache.Install(tbe.way, tbe.block, cur.State, cur.Data)
		if a.Write {
			l.commitStore(tbe.way, tbe.done)
		} else {
			l.completeLoad(tbe.way, tbe.done)
		}
	}
	for _, w := range tbe.waiters {
		l.lookupAndService(w.access, w.done)
	}
	l.replayStalled()
	l.freeTBE(tbe)
}

// replayStalled retries accesses that stalled on fully-reserved sets. The
// drained batch and the fresh stall list double-buffer each other.
//
//stash:hotpath
func (l *L1) replayStalled() {
	if len(l.stalled) == 0 {
		return
	}
	stalled := l.stalled
	l.stalled = l.stalledSpare[:0]
	for _, w := range stalled {
		l.lookupAndService(w.access, w.done)
	}
	l.stalledSpare = stalled[:0]
}

// foldIntoL2 retires an L1 victim into the (inclusive) L2: dirty data and
// the Modified state move down; no coherence traffic results.
//
//stash:hotpath
func (l *L1) foldIntoL2(ln *cacheLine) {
	l2ln := l.l2.Probe(ln.Block)
	if l2ln == nil {
		panic(fmt.Sprintf("coherence: core %d L1 holds block %#x that its L2 does not (inclusion broken)",
			l.id, uint64(ln.Block)))
	}
	if ln.State == mem.Modified {
		l2ln.State = mem.Modified
		l2ln.Data = ln.Data
	}
	l.cache.Evict(ln)
}

// evictL2Line retires an L2 victim out of the hierarchy: any L1 copy is
// removed first (taking its newer data), then the directory is notified as
// for a single-level eviction.
//
//stash:hotpath
func (l *L1) evictL2Line(l2ln *cacheLine) {
	b := l2ln.Block
	data, state := l2ln.Data, l2ln.State
	if l1ln := l.cache.Probe(b); l1ln != nil {
		if l1ln.State == mem.Modified {
			data, state = l1ln.Data, mem.Modified
		}
		l.cache.Evict(l1ln)
	}
	l.retire(b, state, data)
	l.l2.Evict(l2ln)
}

// completeLoad verifies the value against the oracle and schedules the
// core's continuation after the hit latency.
//
//stash:hotpath
func (l *L1) completeLoad(ln *cacheLine, done func()) {
	l.fab.Checker.CheckLoad(l.id, ln.Block, ln.Data)
	l.fab.Engine.After(l.fab.Params.L1HitLatency, "l1.load", done)
}

// commitStore stamps the oracle value into the line (the store commits
// here; the line must be writable) and schedules the continuation.
//
//stash:hotpath
func (l *L1) commitStore(ln *cacheLine, done func()) {
	if ln.State != mem.Modified {
		panic(fmt.Sprintf("coherence: core %d storing to %v line", l.id, ln.State))
	}
	ln.Data = l.fab.Checker.CommitStore(ln.Block)
	l.fab.Engine.After(l.fab.Params.L1HitLatency, "l1.store", done)
}

// evictLine retires a single-level victim out of the hierarchy.
//
//stash:hotpath
func (l *L1) evictLine(ln *cacheLine) {
	l.retire(ln.Block, ln.State, ln.Data)
	l.cache.Evict(ln)
}

// retire tells the directory that the hierarchy dropped its copy of b: a
// Modified copy writes back with PutM, a clean one sends PutE or PutS
// unless silent clean evictions are configured, and an Invalid one sends
// nothing. The eviction buffer, filled before the Put leaves, keeps the
// payload until the PutAck, so a snoop that races the Put still finds it.
//
//stash:hotpath
func (l *L1) retire(b mem.Block, state mem.State, data uint64) {
	var t MsgType
	switch {
	case state == mem.Modified:
		l.stats.Writebacks.Inc()
		t = MsgPutM
	case state == mem.Invalid || l.fab.Params.SilentCleanEvictions:
		return
	case state == mem.Exclusive:
		t = MsgPutE
	default:
		t = MsgPutS
	}
	dirty := t == MsgPutM
	l.evict.put(b, evictBuf{data: data, dirty: dirty})
	wb := l.fab.newMsg(t, b)
	wb.From = l.id
	if dirty {
		wb.Data, wb.HasData, wb.Dirty = data, true, true
	}
	l.send(wb)
}

// send routes m to its block's home bank; the mesh takes ownership.
//
//stash:transfer
//stash:hotpath
func (l *L1) send(m *Msg) { l.fab.sendToBank(l.node(), m) }

// deliver handles a message from the network. The L1 is the final receiver
// of everything routed here, so the message returns to the pool when the
// handler is done with it.
//
//stash:hotpath
func (l *L1) deliver(m *Msg) {
	switch m.Type {
	case MsgDataS, MsgDataE, MsgDataM:
		l.onData(m)
	case MsgInv:
		l.onInv(m)
	case MsgFetch:
		l.onFetch(m)
	case MsgDiscover:
		l.onDiscover(m)
	case MsgFwdGetS:
		l.onFwdGetS(m)
	case MsgFwdGetM:
		l.onFwdGetM(m)
	case MsgPutAck:
		l.evict.del(m.Block)
	default:
		panic(fmt.Sprintf("coherence: L1 %d cannot handle %v", l.id, m))
	}
	l.fab.releaseMsg(m)
}

// onFwdGetS (three-hop mode) downgrades an owned copy, sends the data
// straight to the requester, and tells the bank what happened. When the
// copy is gone (and not even in the eviction buffer), the bank serves the
// requester itself.
//
//stash:hotpath
func (l *L1) onFwdGetS(m *Msg) {
	resp := l.fab.newMsg(MsgFetchResp, m.Block)
	resp.From = l.id
	if l1ln, l2ln, data, found := l.snoop(m.Block, resp); found {
		if l1ln != nil || l2ln != nil {
			downgradeHier(l1ln, l2ln)
			resp.Retained = true
		}
		resp.Forwarded = true
		l.forward(m, MsgDataS, data)
	}
	l.send(resp)
}

// onFwdGetM (three-hop mode) invalidates an owned copy and forwards a
// writable grant to the requester.
//
//stash:hotpath
func (l *L1) onFwdGetM(m *Msg) {
	resp := l.fab.newMsg(MsgInvAck, m.Block)
	resp.From = l.id
	if l1ln, l2ln, data, found := l.snoop(m.Block, resp); found {
		resp.Forwarded = true
		l.forward(m, MsgDataM, data)
		if l1ln != nil || l2ln != nil {
			l.stats.Invalidations[ReasonDemand].Inc()
			l.invalidateHier(l1ln, l2ln)
			l.markUpgradeInvalidated(m.Block)
		}
	}
	l.send(resp)
}

// forward sends m's three-hop requester a t grant carrying data.
//
//stash:hotpath
func (l *L1) forward(m *Msg, t MsgType, data uint64) {
	g := l.fab.newMsg(t, m.Block)
	g.From = l.id
	g.Data, g.HasData = data, true
	l.fab.sendToCore(l.node(), m.Requester, g)
}

// onData completes an outstanding miss, then replays any accesses that
// coalesced behind it or stalled on a full set.
//
//stash:hotpath
func (l *L1) onData(m *Msg) {
	tbe, ok := l.tbes.get(m.Block)
	if !ok {
		panic(fmt.Sprintf("coherence: core %d got %v with no matching transaction", l.id, m))
	}
	l.tbes.del(m.Block)
	tbe.way.Flags &^= flagReserved

	// The grant's state, which both levels take.
	var st mem.State
	switch m.Type {
	case MsgDataS:
		st = mem.Shared
	case MsgDataE:
		st = mem.Exclusive
	case MsgDataM:
		st = mem.Modified
	}

	// Fill the L2 level first (the directory tracks it).
	if l.l2 != nil {
		l2ln := tbe.l2way
		l2ln.Flags &^= flagReserved
		if l2ln.Valid() {
			if l2ln.Block != m.Block {
				panic(fmt.Sprintf("coherence: core %d reserved L2 way is occupied by %#x", l.id, uint64(l2ln.Block)))
			}
			l2ln.State = st
			if m.HasData {
				l2ln.Data = m.Data
			}
			l.l2.Touch(l2ln)
		} else {
			data := m.Data
			if !m.HasData {
				// In-place upgrade whose L2 line was since evicted... cannot
				// happen: upgrades pin the block via the TBE, and L2 victim
				// selection skips blocks with transactions.
				panic(fmt.Sprintf("coherence: core %d L2 upgrade target vanished for %#x", l.id, uint64(m.Block)))
			}
			l.l2.Install(l2ln, m.Block, st, data)
		}
	}

	var ln *cacheLine
	if tbe.upgrade && !tbe.sawInv && !m.HasData {
		// In-place upgrade: the Shared copy survived, so its data is
		// current; the grant carries permission only.
		ln = tbe.way
		switch {
		case ln.Valid() && ln.Block == m.Block:
			ln.State = st
			l.cache.Touch(ln)
		case l.l2 != nil && !ln.Valid():
			// The Shared copy lived only in the L2; fill the L1 from it.
			l.cache.Install(ln, m.Block, st, tbe.l2way.Data)
		default:
			panic(fmt.Sprintf("coherence: core %d upgrade target vanished", l.id))
		}
	} else {
		if !m.HasData {
			panic(fmt.Sprintf("coherence: core %d got %v without data for a fill", l.id, m))
		}
		ln = tbe.way
		if ln.Valid() {
			// Only an upgrade whose Shared copy survived can find its way
			// occupied here (e.g. the entry was stashed mid-flight and the
			// bank granted full data): overwrite in place.
			if !tbe.upgrade || ln.Block != m.Block {
				panic(fmt.Sprintf("coherence: core %d reserved way is occupied by %#x", l.id, uint64(ln.Block)))
			}
			ln.State = st
			ln.Data = m.Data
			l.cache.Touch(ln)
		} else {
			l.cache.Install(ln, m.Block, st, m.Data)
		}
	}

	if m.From >= 0 {
		// The grant was forwarded by the previous owner: tell the home
		// bank it landed so it may open the block's next transaction.
		ub := l.fab.newMsg(MsgUnblock, m.Block)
		ub.From = l.id
		l.send(ub)
	}

	l.stats.MissLatency.Observe(int64(uint64(l.fab.Engine.Now()) - tbe.issued))
	if tbe.write {
		if ln.State != mem.Modified {
			panic(fmt.Sprintf("coherence: core %d write granted %v", l.id, ln.State))
		}
		l.commitStore(ln, tbe.done)
	} else {
		l.completeLoad(ln, tbe.done)
	}

	// Replay coalesced accesses: the first may start a new transaction for
	// this block (e.g. a store behind a Shared grant); the rest re-coalesce
	// behind it.
	for _, w := range tbe.waiters {
		l.lookupAndService(w.access, w.done)
	}
	// Retry accesses that stalled on fully-reserved sets; the fill may have
	// freed a way (possibly in another set — retrying all is harmless).
	l.replayStalled()
	l.freeTBE(tbe)
}

// snoop finds the hierarchy's copy of b for a directory-initiated message:
// its L1 and L2 lines (nil where a level lacks it) or, when neither level
// has it, the eviction buffer of a copy whose Put is in flight. It reports
// whether any copy was found, returns the freshest payload and puts a
// dirty one into resp. A Modified L1 payload beats the L2's, and a clean
// L1 copy over a Modified L2 copy takes the L2's payload.
//
//stash:hotpath
func (l *L1) snoop(b mem.Block, resp *Msg) (l1ln, l2ln *cacheLine, data uint64, found bool) {
	l1ln = l.cache.Probe(b)
	if l.l2 != nil {
		l2ln = l.l2.Probe(b)
	}
	dirty := false
	switch {
	case l1ln != nil && l1ln.State == mem.Modified:
		data, dirty = l1ln.Data, true
	case l2ln != nil && l2ln.State == mem.Modified:
		data, dirty = l2ln.Data, true
	case l1ln != nil:
		data = l1ln.Data
	case l2ln != nil:
		data = l2ln.Data
	default:
		buf, ok := l.evict.get(b)
		if !ok {
			return nil, nil, 0, false
		}
		data, dirty = buf.data, buf.dirty
	}
	if dirty {
		resp.Data, resp.HasData, resp.Dirty = data, true, true
	}
	return l1ln, l2ln, data, true
}

// invalidateHier removes the copy from both levels.
//
//stash:hotpath
func (l *L1) invalidateHier(l1ln, l2ln *cacheLine) {
	if l1ln != nil {
		l.cache.Evict(l1ln)
	}
	if l2ln != nil {
		l.l2.Evict(l2ln)
	}
}

// downgradeHier moves both levels to Shared. A Modified L1 copy's data is
// synced into the L2 first — otherwise the L2 would keep serving its stale
// payload after the (now Shared) L1 copy folds away.
//
//stash:hotpath
func downgradeHier(l1ln, l2ln *cacheLine) {
	if l1ln != nil && l1ln.State == mem.Modified && l2ln != nil {
		l2ln.Data = l1ln.Data
	}
	if l1ln != nil {
		l1ln.State = mem.Shared
	}
	if l2ln != nil {
		l2ln.State = mem.Shared
	}
}

// markUpgradeInvalidated flags an in-flight upgrade whose copy a snoop just
// killed, keeping its fill targets reserved. Because invalidation clears
// the line's Flags word, callers invalidate first and mark afterwards.
//
//stash:hotpath
func (l *L1) markUpgradeInvalidated(b mem.Block) {
	if tbe, ok := l.tbes.get(b); ok && tbe.upgrade {
		tbe.sawInv = true
		tbe.way.Flags |= flagReserved
		if tbe.l2way != nil {
			tbe.l2way.Flags |= flagReserved
		}
	}
}

// onInv invalidates a copy (or records that there is nothing to
// invalidate) and always acknowledges immediately. A copy caught in the
// eviction buffer is answered from there.
//
//stash:hotpath
func (l *L1) onInv(m *Msg) {
	ack := l.fab.newMsg(MsgInvAck, m.Block)
	ack.From = l.id
	l1ln, l2ln, _, found := l.snoop(m.Block, ack)
	if !found {
		l.stats.SpuriousInvs.Inc()
	} else {
		l.stats.Invalidations[m.Reason].Inc()
		if l1ln != nil || l2ln != nil {
			if m.Reason != ReasonDemand {
				l.invalidatedBy.put(m.Block, m.Reason)
			}
			l.invalidateHier(l1ln, l2ln)
			l.markUpgradeInvalidated(m.Block)
		}
	}
	l.send(ack)
}

// onFetch downgrades an owned copy to Shared and returns its data (when
// dirty). Retained=false tells the bank the copy is already gone.
//
//stash:hotpath
func (l *L1) onFetch(m *Msg) {
	resp := l.fab.newMsg(MsgFetchResp, m.Block)
	resp.From = l.id
	if l1ln, l2ln, _, _ := l.snoop(m.Block, resp); l1ln != nil || l2ln != nil {
		downgradeHier(l1ln, l2ln)
		resp.Retained = true
	}
	l.send(resp)
}

// onDiscover answers a stash discovery probe, applying the requested
// action (downgrade or invalidate) to a found copy. A hidden block caught
// mid-writeback reports its data but no retained copy.
//
//stash:hotpath
func (l *L1) onDiscover(m *Msg) {
	resp := l.fab.newMsg(MsgDiscoverResp, m.Block)
	resp.From = l.id
	l1ln, l2ln, _, found := l.snoop(m.Block, resp)
	resp.Found = found
	if l1ln != nil || l2ln != nil {
		switch m.Kind {
		case DiscoverDowngrade:
			downgradeHier(l1ln, l2ln)
			resp.Retained = true
		case DiscoverInvalidate:
			if m.Reason != ReasonDemand {
				l.invalidatedBy.put(m.Block, m.Reason)
			}
			l.invalidateHier(l1ln, l2ln)
			l.markUpgradeInvalidated(m.Block)
		}
	}
	l.send(resp)
}
