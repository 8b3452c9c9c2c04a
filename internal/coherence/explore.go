package coherence

import (
	"fmt"
	"slices"
	"sort"

	"encoding/binary"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
)

// This file is the enumeration surface the model checker (internal/mcheck)
// drives the protocol through: hooks that turn the fabric's implicit
// scheduling decisions (message transport, bank retry timers) into explicit
// choice points, direct-delivery and forced-eviction entry points, and a
// canonical state serializer. Everything here operates on the *real*
// controllers — nothing is re-modeled — which is the first concrete cut
// toward the pluggable protocol interface of ROADMAP item 3: a backend is
// whatever can be driven, delivered to, and serialized through this
// surface.

// SetSendHook installs (or, with nil, removes) a message-capture hook. When
// the hook returns true it has taken ownership of the message and the mesh
// never sees it; the model checker parks captured messages in per-(src,dst)
// FIFO channels and enumerates which channel head to deliver next. Per-pair
// FIFO order is the one transport property the protocol legitimately relies
// on (a PutM must not be overtaken by the same L1's re-GetS to the same
// bank), so enumerating only channel heads is sound and complete with
// respect to the real point-to-point-ordered NoC.
func (f *Fabric) SetSendHook(h func(src, dst noc.NodeID, m *Msg) bool) { f.sendHook = h }

// SetRetryHook installs (or removes) the bank-retry interceptor. Without
// it, a bank whose allocation found every victim busy re-arms an engine
// timer, which under run-to-quiescence exploration would spin forever while
// the delivery that unblocks it sits parked; with it, the parked retry
// becomes an explicit scheduler action the checker fires when it chooses.
func (f *Fabric) SetRetryHook(h func(ParkedRetry)) { f.retryHook = h }

// RetryKind names which bank retry loop was intercepted.
type RetryKind uint8

const (
	// RetryLLCVictim is fillFromMemory's loop: every LLC way of the
	// target set carries an in-flight transaction.
	RetryLLCVictim RetryKind = iota
	// RetryAlloc is allocEntry's loop: the directory organization returned
	// AllocBlocked (every victim candidate busy).
	RetryAlloc
)

// String names the retry kind.
func (k RetryKind) String() string {
	switch k {
	case RetryLLCVictim:
		return "llc-victim-retry"
	case RetryAlloc:
		return "alloc-retry"
	}
	return fmt.Sprintf("RetryKind(%d)", uint8(k))
}

// ParkedRetry is one intercepted bank retry: an opaque resumption handle.
// Fire resumes the transaction exactly as the elapsed timer would have; the
// checker must fire each parked retry at most once (firing may park a new
// one if the allocation is still blocked).
type ParkedRetry struct {
	bank *Bank
	kind RetryKind
	tbe  *dirTBE
}

// BankID returns the bank holding the blocked transaction.
func (p ParkedRetry) BankID() int { return p.bank.id }

// Kind returns which retry loop parked.
func (p ParkedRetry) Kind() RetryKind { return p.kind }

// Block returns the block whose transaction is blocked.
func (p ParkedRetry) Block() mem.Block { return p.tbe.block }

// Fire re-runs the blocked step.
func (p ParkedRetry) Fire() {
	switch p.kind {
	case RetryLLCVictim:
		p.bank.fillFromMemory(p.tbe)
	case RetryAlloc:
		p.bank.allocEntry(p.tbe)
	default:
		panic(fmt.Sprintf("coherence: firing unknown retry kind %d", p.kind))
	}
}

// DeliverDirect hands a captured message to its destination tile's
// controller, bypassing the mesh: the same demultiplexing as the NoC
// endpoint, without transport latency. The receiver takes ownership of m.
//
//stash:transfer
func (f *Fabric) DeliverDirect(dst noc.NodeID, m *Msg) {
	switch m.Type {
	case MsgGetS, MsgGetM, MsgPutS, MsgPutE, MsgPutM, MsgInvAck, MsgFetchResp, MsgDiscoverResp, MsgUnblock:
		f.Banks[dst].deliver(m)
	case MsgDataS, MsgDataE, MsgDataM, MsgInv, MsgFetch, MsgPutAck, MsgDiscover, MsgFwdGetS, MsgFwdGetM:
		f.L1s[dst].deliver(m)
	default:
		panic(fmt.Sprintf("coherence: undeliverable message %v", m))
	}
}

// RecycleMsg returns a captured message to the fabric's pool without
// delivering it. Mutation tests use it to model message loss: the pool
// books stay balanced so the resulting violation is the protocol hang, not
// a spurious leak report.
//
//stash:release
func (f *Fabric) RecycleMsg(m *Msg) { f.releaseMsg(m) }

// OpenWork reports whether any controller still holds transient protocol
// state: an L1 miss or stalled access, an unacknowledged eviction, or an
// open bank transaction. A state with OpenWork and no deliverable message
// or parked retry is a deadlock.
func (f *Fabric) OpenWork() bool {
	for _, l1 := range f.L1s {
		if l1.tbes.len() > 0 || len(l1.stalled) > 0 || l1.evict.len() > 0 {
			return true
		}
	}
	for _, bk := range f.Banks {
		if bk.tbes.len() > 0 {
			return true
		}
	}
	return false
}

// BlockBusy reports whether block b has transient protocol state in any
// controller (home-bank transaction, an L1 miss, or an in-flight eviction
// buffer). The per-state invariants only apply their residency checks to
// blocks that are quiet: not busy here and with no in-flight messages.
func (f *Fabric) BlockBusy(b mem.Block) bool {
	if f.Banks[f.HomeBank(b)].tbes.has(b) {
		return true
	}
	for _, l1 := range f.L1s {
		if l1.tbes.has(b) {
			return true
		}
		if _, ok := l1.evict.get(b); ok {
			return true
		}
	}
	return false
}

// TBEPoolUse reports the bank's live transaction count and high-water mark
// (the leak check at quiescent states).
func (bk *Bank) TBEPoolUse() (inUse, highWater int) { return bk.tbeUse, bk.tbeHigh }

// CanForceEvict reports whether core's private copy of b may be retired
// right now: the block is resident in the outer private level, not reserved
// by an in-flight fill, has no open miss, and no eviction already in
// flight.
func (l *L1) CanForceEvict(b mem.Block) bool {
	outer := l.cache
	if l.l2 != nil {
		outer = l.l2
	}
	ln := outer.Probe(b)
	if ln == nil || ln.Flags&flagReserved != 0 {
		return false
	}
	if l.tbes.has(b) {
		return false
	}
	if _, ok := l.evict.get(b); ok {
		return false
	}
	return true
}

// ForceEvict retires core's private copy of b exactly as a capacity victim
// would be: writeback for Modified, Put notification (or silent drop) for
// clean states. It reports whether the eviction happened; the checker uses
// it to inject evictions at chosen points, since the tiny configurations it
// explores never evict under capacity pressure on their own.
func (l *L1) ForceEvict(b mem.Block) bool {
	if !l.CanForceEvict(b) {
		return false
	}
	if l.l2 != nil {
		l.evictL2Line(l.l2.Probe(b))
		return true
	}
	l.evictLine(l.cache.Probe(b))
	return true
}

// L1BlockState returns a compact token for core's private state of b — the
// MESI letter of the cached copy, with "+busy" appended while the L1 has an
// open transaction or unacknowledged eviction for it. The model checker
// uses these tokens as the row labels of the generated transition tables.
func (f *Fabric) L1BlockState(core int, b mem.Block) string {
	l1 := f.L1s[core]
	outer := l1.cache
	if l1.l2 != nil {
		outer = l1.l2
	}
	st := "I"
	if ln := outer.Probe(b); ln != nil {
		st = ln.State.String()
	}
	if l1.tbes.has(b) {
		st += "+busy"
	} else if _, ok := l1.evict.get(b); ok {
		st += "+busy"
	}
	return st
}

// BankBlockState returns a compact token for b's standing at its home
// bank's directory slice and LLC: "absent" (not LLC-resident), "hidden"
// (LLC-resident, stashed entry), "untracked" (LLC-resident, no entry, no
// hidden bit), "shared" or "owned" (tracked), with "+busy" appended while
// the bank has an open transaction for it.
func (f *Fabric) BankBlockState(bank int, b mem.Block) string {
	bk := f.Banks[bank]
	var st string
	line := bk.llc.Probe(b)
	entry := bk.dir.Probe(b)
	switch {
	case line == nil:
		st = "absent"
	case entry == nil && line.Flags&flagHidden != 0:
		st = "hidden"
	case entry == nil:
		st = "untracked"
	case entry.Owned:
		st = "owned"
	default:
		st = "shared"
	}
	if bk.tbes.has(b) {
		st += "+busy"
	}
	return st
}

// ---------------------------------------------------------------------------
// Canonical state serialization
// ---------------------------------------------------------------------------

// StateEncoder serializes fabric state into a canonical byte string for
// visited-set deduplication. Canonical means: a pure function of the
// machine's architectural state, independent of the history that produced
// it — hash-table slot order is normalized by sorting, and the checker's
// store stamps (globally unique, so history-dependent) are renamed to
// first-encounter order. Renaming is sound because the protocol never
// branches on payload values and every invariant compares them only for
// equality, so states whose payloads differ by a stamp bijection are
// bisimilar.
//
// The encoder deliberately excludes: statistics counters, replacement
// policy state (the checker's configurations are shaped so victim selection
// never consults a policy), engine time (states are encoded at engine
// quiescence, where future behavior is time-independent), and the
// miss-classification table (it feeds counters only).
type StateEncoder struct {
	buf    []byte
	rename map[uint64]uint32
	// scratch slices reused across encodes.
	blocks []mem.Block
	tbeBuf []mem.Block
}

// NewStateEncoder returns an empty encoder.
func NewStateEncoder() *StateEncoder {
	return &StateEncoder{rename: make(map[uint64]uint32)}
}

// Reset clears the encoder for the next state.
func (e *StateEncoder) Reset() {
	e.buf = e.buf[:0]
	clear(e.rename)
}

// Bytes returns the encoded state. The slice is valid until the next Reset.
func (e *StateEncoder) Bytes() []byte { return e.buf }

// Byte appends a raw separator/tag byte.
func (e *StateEncoder) Byte(b byte) { e.buf = append(e.buf, b) }

// U64 appends a varint.
func (e *StateEncoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *StateEncoder) flag(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// sint appends a small possibly-negative integer (core ids use -1).
func (e *StateEncoder) sint(v int) { e.buf = binary.AppendVarint(e.buf, int64(v)) }

// stamp appends the canonical rename of a payload value.
func (e *StateEncoder) stamp(v uint64) {
	id, ok := e.rename[v]
	if !ok {
		id = uint32(len(e.rename) + 1)
		e.rename[v] = id
	}
	e.U64(uint64(id))
}

// Msg appends a message canonically. Exposed so the checker can fold its
// channel contents into the same encoding (sharing the stamp renamer).
func (e *StateEncoder) Msg(m *Msg) {
	e.Byte(byte(m.Type))
	e.U64(uint64(m.Block))
	e.sint(m.From)
	e.flag(m.HasData)
	if m.HasData {
		e.stamp(m.Data)
	}
	e.flag(m.Dirty)
	e.flag(m.Found)
	e.flag(m.Retained)
	e.Byte(byte(m.Reason))
	e.Byte(byte(m.Kind))
	e.sint(m.Requester)
	e.flag(m.Forwarded)
	e.flag(m.HaveLine)
}

// tagArray appends a cache's complete slot layout: state and flags for
// every way, block and (renamed) payload for the valid ones. Empty-way
// positions matter — victim selection prefers the first invalid way in way
// order — so slots are encoded positionally rather than as a sorted set.
func (e *StateEncoder) tagArray(c *cache.Cache) {
	c.ForEachSlot(func(_ int, ln *cacheLine) {
		e.Byte(byte(ln.State))
		e.U64(uint64(ln.Flags))
		if ln.Valid() {
			e.U64(uint64(ln.Block))
			e.stamp(ln.Data)
		}
	})
}

// slotOf maps a line pointer to its flat slot index in c, or -1 for nil.
func slotOf(c *cache.Cache, ln *cacheLine) int {
	if ln == nil {
		return -1
	}
	set, way := c.Locate(ln)
	return set*c.Ways() + way
}

// sortedTBEBlocks collects a blockTable's keys in ascending block order;
// the table's own iteration order depends on insertion history, which a
// canonical encoding must erase.
func sortedBlocks[V any](t *blockTable[V], scratch []mem.Block) []mem.Block {
	out := scratch[:0]
	t.forEach(func(b mem.Block, _ V) { out = append(out, b) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fabric appends the complete canonical controller state: every private
// tag array, L1 and bank transaction, eviction buffer, directory slice,
// LLC bank, memory contents, the value oracle, and the message pool's
// occupancy.
func (e *StateEncoder) Fabric(f *Fabric) {
	for _, l1 := range f.L1s {
		e.Byte('L')
		e.tagArray(l1.cache)
		if l1.l2 != nil {
			e.tagArray(l1.l2)
		}
		e.tbeBuf = sortedBlocks(l1.tbes, e.tbeBuf)
		e.U64(uint64(len(e.tbeBuf)))
		for _, b := range e.tbeBuf {
			tbe, _ := l1.tbes.get(b)
			e.U64(uint64(b))
			e.flag(tbe.write)
			e.flag(tbe.upgrade)
			e.flag(tbe.sawInv)
			e.sint(slotOf(l1.cache, tbe.way))
			if l1.l2 != nil {
				e.sint(slotOf(l1.l2, tbe.l2way))
			}
			e.U64(uint64(len(tbe.waiters)))
			for _, w := range tbe.waiters {
				e.flag(w.access.Write)
			}
		}
		e.U64(uint64(len(l1.stalled)))
		for _, w := range l1.stalled {
			e.U64(uint64(w.access.Block()))
			e.flag(w.access.Write)
		}
		e.tbeBuf = sortedBlocks(l1.evict, e.tbeBuf)
		e.U64(uint64(len(e.tbeBuf)))
		for _, b := range e.tbeBuf {
			buf, _ := l1.evict.get(b)
			e.U64(uint64(b))
			e.flag(buf.dirty)
			e.stamp(buf.data)
		}
	}

	for _, bk := range f.Banks {
		e.Byte('B')
		e.tagArray(bk.llc)
		// Directory entries arrive in slot order (deterministic per
		// organization); slot coordinates are part of the state because
		// placement drives future victim and relocation choices.
		e.Byte('D')
		bk.dir.ForEach(func(en *core.Entry) {
			set, way := en.Slot()
			e.U64(uint64(set))
			e.U64(uint64(way))
			e.U64(uint64(en.Block))
			e.flag(en.Owned)
			e.flag(en.Overflowed)
			en.Sharers.ForEach(func(c int) { e.Byte(byte(c)) })
			e.Byte(0xFF)
		})
		e.Byte('T')
		e.tbeBuf = sortedBlocks(bk.tbes, e.tbeBuf)
		e.U64(uint64(len(e.tbeBuf)))
		for _, b := range e.tbeBuf {
			tbe, _ := bk.tbes.get(b)
			e.U64(uint64(b))
			e.Byte(byte(tbe.reqType))
			e.sint(tbe.reqFrom)
			e.stamp(tbe.reqData)
			e.flag(tbe.reqHave)
			e.U64(uint64(tbe.waitAcks))
			e.flag(tbe.gotDirty)
			if tbe.gotDirty {
				e.stamp(tbe.dirtyData)
			}
			e.sint(tbe.retained)
			e.flag(tbe.anyFound)
			e.flag(tbe.forwarded)
			e.U64(uint64(tbe.unblocks))
			e.flag(tbe.wantUnblock)
			e.Byte(byte(tbe.cont))
			e.Byte(byte(tbe.alloc))
			e.sint(slotOf(bk.llc, tbe.line))
			e.flag(tbe.entry != nil)
			e.sint(tbe.owner)
			e.flag(tbe.wasSharer)
			if tbe.parent != nil {
				e.flag(true)
				e.U64(uint64(tbe.parent.block))
			} else {
				e.flag(false)
			}
			e.U64(uint64(tbe.qlen))
			for q := tbe.qhead; q != nil; q = q.next {
				e.Msg(q)
			}
		}
	}

	e.Byte('M')
	e.blocks = e.blocks[:0]
	//stash:ignore determinism keys are sorted before use
	for b := range f.Memory.values {
		e.blocks = append(e.blocks, b)
	}
	sort.Slice(e.blocks, func(i, j int) bool { return e.blocks[i] < e.blocks[j] })
	for _, b := range e.blocks {
		e.U64(uint64(b))
		e.stamp(f.Memory.values[b])
	}

	e.Byte('O')
	e.blocks = e.blocks[:0]
	//stash:ignore determinism keys are sorted before use
	for b := range f.Checker.oracle {
		e.blocks = append(e.blocks, b)
	}
	sort.Slice(e.blocks, func(i, j int) bool { return e.blocks[i] < e.blocks[j] })
	for _, b := range e.blocks {
		e.U64(uint64(b))
		e.stamp(f.Checker.oracle[b])
	}

	e.Byte('P')
	e.U64(uint64(f.pool.inUse))
}

// ---------------------------------------------------------------------------
// Per-state invariants
// ---------------------------------------------------------------------------

// StepInvariants checks the safety invariants that must hold at every
// reachable state (not just at end-of-run quiescence, which is Audit's
// job):
//
//   - SWMR: a block with an E/M copy has no other private copy.
//   - Data value: every private copy's payload equals the oracle's current
//     value for the block (writes are serialized through M, so a stale
//     payload means a lost invalidation or a wrong grant).
//   - Residency tracking, for quiet blocks only (no open transaction, no
//     in-flight message — supplied by the caller, who owns the channels):
//     a privately cached block is LLC-resident at its home bank and either
//     directory-tracked with the holder covered, or hidden with exactly
//     one copy. This is the stash directory's central obligation: an
//     unnotified (stashed) eviction may never strand a cached copy where
//     neither the sharer bits nor the hidden bit can find it again.
//
// inflight reports whether any captured message for the block is pending.
func StepInvariants(f *Fabric, inflight func(mem.Block) bool) []string {
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 64 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}

	held := gatherHoldings(f, func(l1 *L1, copies []holding) {
		if !f.Checker.enabled {
			return
		}
		for _, h := range copies {
			if want := f.Checker.oracle[h.block]; h.data != want {
				report("core %d holds block %#x in %v with payload %#x, oracle says %#x",
					l1.id, uint64(h.block), h.state, h.data, want)
			}
		}
	})

	for i, j := 0, 0; i < len(held); i = j {
		j = blockRun(held, i)
		b, copies := held[i].block, held[i:j]
		if len(copies) > 1 && slices.ContainsFunc(copies, holding.owned) {
			report("SWMR violated for block %#x: %d holders with an owned copy present", uint64(b), len(copies))
		}

		if f.BlockBusy(b) || (inflight != nil && inflight(b)) {
			continue // transient shapes are legal while the block is in motion
		}
		bank := f.Banks[f.HomeBank(b)]
		line := bank.llc.Probe(b)
		if line == nil {
			report("inclusion violated: quiet block %#x cached in core %d but absent from LLC bank %d",
				uint64(b), copies[0].core, bank.id)
			continue
		}
		entry := bank.dir.Probe(b)
		hidden := line.Flags&flagHidden != 0
		switch {
		case entry == nil && !hidden:
			report("tracking lost: quiet block %#x cached in core %d, no directory entry, hidden bit clear",
				uint64(b), copies[0].core)
		case entry == nil && len(copies) != 1:
			report("hidden block %#x has %d copies, want exactly 1", uint64(b), len(copies))
		case entry != nil && hidden:
			report("block %#x is both tracked and hidden", uint64(b))
		case entry != nil && !entry.Overflowed:
			for _, h := range copies {
				if !entry.Sharers.Has(h.core) {
					report("directory entry for quiet block %#x omits holder core %d", uint64(b), h.core)
				}
			}
		}
	}
	return bad
}
