package coherence

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
)

// dirFactory builds one directory slice per bank.
type dirFactory func(bank int) (core.Directory, error)

func fullMapFactory() dirFactory {
	return func(int) (core.Directory, error) { return core.NewFullMap(), nil }
}

// sparseFactory builds tiny sparse slices to force conflicts in tests.
func sparseFactory(sets, ways int, shift uint) dirFactory {
	return func(int) (core.Directory, error) {
		return core.NewSparse(core.AssocConfig{Sets: sets, Ways: ways, IndexShift: shift})
	}
}

func stashFactory(sets, ways int, shift uint, singletonS bool) dirFactory {
	return func(int) (core.Directory, error) {
		return core.NewStash(core.StashConfig{
			AssocConfig:          core.AssocConfig{Sets: sets, Ways: ways, IndexShift: shift},
			StashSingletonShared: singletonS,
		})
	}
}

func cuckooFactory(ways, slots int) dirFactory {
	return func(bank int) (core.Directory, error) {
		return core.NewCuckoo(core.CuckooConfig{Ways: ways, SlotsPerWay: slots, Seed: int64(bank + 1)})
	}
}

// meshFor picks a mesh geometry for a core count.
func meshFor(cores int) noc.Config {
	var w, h int
	switch cores {
	case 1:
		w, h = 1, 1
	case 2:
		w, h = 2, 1
	case 4:
		w, h = 2, 2
	case 8:
		w, h = 4, 2
	case 16:
		w, h = 4, 4
	default:
		panic(fmt.Sprintf("no mesh for %d cores", cores))
	}
	return noc.DefaultConfig(w, h)
}

// log2 of a power of two.
func log2(n int) uint {
	var s uint
	for 1<<s < n {
		s++
	}
	return s
}

type fabricOpt func(*BuildConfig)

func withSilentEvictions() fabricOpt {
	return func(c *BuildConfig) { c.Params.SilentCleanEvictions = true }
}

func withL1(sets, ways int) fabricOpt {
	return func(c *BuildConfig) { c.L1.Sets, c.L1.Ways = sets, ways }
}

func withLLC(sets, ways int) fabricOpt {
	return func(c *BuildConfig) { c.LLC.Sets, c.LLC.Ways = sets, ways }
}

// testFabric assembles a small machine: tiny L1s (8 lines) and LLC banks
// (64 lines each) so tests exercise evictions quickly.
func testFabric(t testing.TB, cores int, mk dirFactory, opts ...fabricOpt) *Fabric {
	t.Helper()
	cfg := BuildConfig{
		Params: DefaultParams(cores),
		Mesh:   meshFor(cores),
		L1:     cache.Config{Name: "l1", Sets: 4, Ways: 2},
		LLC:    cache.Config{Name: "llc", Sets: 16, Ways: 4, IndexShift: log2(cores)},
		NewDirectory: func(bank int) (core.Directory, error) {
			return mk(bank)
		},
	}
	for _, o := range opts {
		o(&cfg)
	}
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// access drives one reference through a core's L1 and drains the machine,
// failing the test if it does not complete.
func access(t testing.TB, f *Fabric, coreID int, block mem.Block, write bool) {
	t.Helper()
	done := false
	f.L1s[coreID].Access(mem.Access{Addr: mem.AddrOf(block), Write: write}, func() { done = true })
	f.Engine.Run(0)
	if !done {
		t.Fatalf("access by core %d to block %#x did not complete (deadlock)", coreID, uint64(block))
	}
}

func load(t testing.TB, f *Fabric, coreID int, b mem.Block)  { access(t, f, coreID, b, false) }
func store(t testing.TB, f *Fabric, coreID int, b mem.Block) { access(t, f, coreID, b, true) }

// finishAndAudit drains and verifies oracle + invariants.
func finishAndAudit(t testing.TB, f *Fabric) {
	t.Helper()
	f.Engine.Run(0)
	if err := f.Checker.Err(); err != nil {
		t.Fatal(err)
	}
	if bad := Audit(f); len(bad) != 0 {
		t.Fatalf("audit failed: %v", bad)
	}
}

func l1State(f *Fabric, coreID int, b mem.Block) mem.State {
	if ln := f.L1s[coreID].Cache().Probe(b); ln != nil {
		return ln.State
	}
	return mem.Invalid
}

// --- basic MESI behavior ---------------------------------------------------

func TestColdReadGrantsExclusive(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	load(t, f, 0, 100)
	if st := l1State(f, 0, 100); st != mem.Exclusive {
		t.Fatalf("state after cold read = %v, want E", st)
	}
	finishAndAudit(t, f)
}

func TestSilentEToMUpgrade(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	load(t, f, 0, 100)
	store(t, f, 0, 100)
	if st := l1State(f, 0, 100); st != mem.Modified {
		t.Fatalf("state = %v, want M", st)
	}
	// The store hit locally: exactly one GetS reached the banks.
	var reqs int64
	for _, bk := range f.Banks {
		reqs += bk.stats.GetS.Value() + bk.stats.GetM.Value()
	}
	if reqs != 1 {
		t.Fatalf("bank requests = %d, want 1 (silent upgrade)", reqs)
	}
	finishAndAudit(t, f)
}

func TestReadSharingDowngradesOwner(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	store(t, f, 0, 7)
	load(t, f, 1, 7) // must observe core 0's value (oracle-checked)
	if st := l1State(f, 0, 7); st != mem.Shared {
		t.Fatalf("owner state = %v, want S", st)
	}
	if st := l1State(f, 1, 7); st != mem.Shared {
		t.Fatalf("reader state = %v, want S", st)
	}
	finishAndAudit(t, f)
}

func TestWriteInvalidatesSharers(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	load(t, f, 0, 9)
	load(t, f, 1, 9)
	load(t, f, 2, 9)
	store(t, f, 3, 9)
	for c := 0; c < 3; c++ {
		if st := l1State(f, c, 9); st != mem.Invalid {
			t.Fatalf("core %d state = %v, want I", c, st)
		}
	}
	if st := l1State(f, 3, 9); st != mem.Modified {
		t.Fatalf("writer state = %v, want M", st)
	}
	load(t, f, 0, 9) // must see core 3's value
	finishAndAudit(t, f)
}

func TestUpgradeFromShared(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	load(t, f, 0, 5)
	load(t, f, 1, 5)
	store(t, f, 0, 5) // upgrade: invalidates core 1
	if st := l1State(f, 1, 5); st != mem.Invalid {
		t.Fatalf("core 1 state = %v, want I", st)
	}
	if st := l1State(f, 0, 5); st != mem.Modified {
		t.Fatalf("core 0 state = %v, want M", st)
	}
	load(t, f, 1, 5)
	finishAndAudit(t, f)
}

func TestMigratorySharing(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	for round := 0; round < 3; round++ {
		for c := 0; c < 4; c++ {
			load(t, f, c, 77)
			store(t, f, c, 77)
		}
	}
	finishAndAudit(t, f)
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	f := testFabric(t, 1, fullMapFactory(), withL1(1, 1)) // 1-line L1
	store(t, f, 0, 1)
	store(t, f, 0, 2) // evicts dirty block 1 (PutM)
	load(t, f, 0, 1)  // refetch: oracle checks the written value survived
	if f.L1s[0].stats.Writebacks.Value() == 0 {
		t.Fatal("no writeback recorded")
	}
	finishAndAudit(t, f)
}

func TestL1ChurnManyBlocks(t *testing.T) {
	f := testFabric(t, 2, fullMapFactory())
	for i := 0; i < 64; i++ {
		store(t, f, 0, mem.Block(i))
	}
	for i := 0; i < 64; i++ {
		load(t, f, 1, mem.Block(i))
	}
	finishAndAudit(t, f)
}

// --- sparse directory: conflicts force recalls ------------------------------

func TestSparseConflictRecallsCachedBlocks(t *testing.T) {
	// 4 cores -> 4 banks; each bank's directory slice has 2 entries. The
	// L1 is 4x4 so core 0 can keep four bank-0 blocks (0,4,8,12) alive at
	// once — more than bank 0 can track.
	f := testFabric(t, 4, sparseFactory(1, 2, 0), withL1(4, 4))
	for i := 0; i < 16; i++ {
		load(t, f, 0, mem.Block(i))
	}
	var recalls int64
	for _, bk := range f.Banks {
		recalls += bk.stats.InvsSent[ReasonRecall].Value()
	}
	if recalls == 0 {
		t.Fatal("no recall invalidations despite directory conflicts")
	}
	// Re-touch everything; values must still be correct.
	for i := 0; i < 16; i++ {
		load(t, f, 0, mem.Block(i))
	}
	var coverage int64
	for _, l1 := range f.L1s {
		coverage += l1.stats.CoverageMisses.Value()
	}
	if coverage == 0 {
		t.Fatal("no coverage misses recorded after recalls")
	}
	finishAndAudit(t, f)
}

func TestSparseRecallOfDirtyBlockPreservesData(t *testing.T) {
	f := testFabric(t, 4, sparseFactory(1, 1, 0))
	store(t, f, 0, 0) // dirty, tracked by bank 0's single entry
	load(t, f, 0, 4)  // same bank (4%4==0): recalls block 0
	load(t, f, 1, 0)  // oracle verifies the dirty data survived the recall
	finishAndAudit(t, f)
}

// --- stash directory --------------------------------------------------------

func TestStashEvictsWithoutInvalidation(t *testing.T) {
	f := testFabric(t, 4, stashFactory(1, 2, 0, false), withL1(4, 4))
	// Core 0 makes 3 blocks E in bank 0 (blocks 0,4,8): its L1 keeps all
	// three, but the bank 0 slice holds 2.
	load(t, f, 0, 0)
	load(t, f, 0, 4)
	load(t, f, 0, 8)
	bk := f.Banks[0]
	if got := bk.Directory().Stats().StashEvictions.Value(); got == 0 {
		t.Fatal("no stash evictions")
	}
	if got := bk.stats.InvsSent[ReasonRecall].Value(); got != 0 {
		t.Fatalf("stash sent %d recall invalidations, want 0", got)
	}
	// All three blocks still live in core 0's L1 (that's the point).
	for _, b := range []mem.Block{0, 4, 8} {
		if st := l1State(f, 0, b); st != mem.Exclusive {
			t.Fatalf("block %d state = %v, want E (not invalidated)", b, st)
		}
	}
	if bk.stats.HiddenSet.Value() == 0 {
		t.Fatal("hidden bit never set")
	}
	finishAndAudit(t, f)
}

func TestDiscoveryFindsHiddenCleanBlock(t *testing.T) {
	f := testFabric(t, 4, stashFactory(1, 1, 0, false))
	load(t, f, 0, 0) // E at core 0, tracked
	load(t, f, 0, 4) // same bank: entry for 0 stashed, hidden bit set
	// Core 1 reads block 0: directory miss, hidden -> discovery must find
	// core 0's copy and downgrade it.
	load(t, f, 1, 0)
	bk := f.Banks[0]
	if bk.stats.DiscoveryBroadcasts.Value() == 0 || bk.stats.DiscoveryFound.Value() == 0 {
		t.Fatalf("discovery not exercised: broadcasts=%d found=%d",
			bk.stats.DiscoveryBroadcasts.Value(), bk.stats.DiscoveryFound.Value())
	}
	if st := l1State(f, 0, 0); st != mem.Shared {
		t.Fatalf("hidden owner state = %v, want S after downgrade", st)
	}
	if st := l1State(f, 1, 0); st != mem.Shared {
		t.Fatalf("requester state = %v, want S", st)
	}
	finishAndAudit(t, f)
}

func TestDiscoveryRecoversHiddenDirtyData(t *testing.T) {
	// The critical stash-correctness case: a *modified* block's entry is
	// stashed; a later reader must get the dirty data via discovery, not a
	// stale LLC copy. The oracle would flag any staleness.
	f := testFabric(t, 4, stashFactory(1, 1, 0, false))
	store(t, f, 0, 0) // M at core 0
	load(t, f, 0, 4)  // stashes block 0's entry (hidden, dirty copy live)
	load(t, f, 1, 0)  // discovery must return core 0's modified data
	bk := f.Banks[0]
	if bk.stats.DiscoveryFound.Value() == 0 {
		t.Fatal("discovery did not find the hidden dirty block")
	}
	finishAndAudit(t, f)
}

func TestDiscoveryInvalidateOnWrite(t *testing.T) {
	f := testFabric(t, 4, stashFactory(1, 1, 0, false))
	store(t, f, 0, 0)
	load(t, f, 0, 4)  // stash block 0
	store(t, f, 1, 0) // GetM on hidden block: discovery-invalidate
	if st := l1State(f, 0, 0); st != mem.Invalid {
		t.Fatalf("hidden owner state = %v, want I after write discovery", st)
	}
	load(t, f, 2, 0) // sees core 1's value
	finishAndAudit(t, f)
}

func TestStaleHiddenBitCleared(t *testing.T) {
	// Silent clean evictions: the hidden owner drops its copy without
	// telling anyone; a later discovery finds nothing and must clear the
	// stale bit and serve from the LLC.
	f := testFabric(t, 4, stashFactory(1, 1, 0, false), withSilentEvictions(), withL1(1, 1))
	load(t, f, 0, 0) // E at core 0 (L1 has exactly 1 line)
	load(t, f, 0, 4) // bank 0: stash entry 0 (hidden) — and L1 evicts 0 silently!
	load(t, f, 1, 0) // discovery: nobody has it -> stale
	bk := f.Banks[0]
	if bk.stats.DiscoveryStale.Value() == 0 {
		t.Fatalf("stale discovery not recorded (found=%d)", bk.stats.DiscoveryFound.Value())
	}
	finishAndAudit(t, f)
}

func TestNotifiedEvictionClearsHiddenBit(t *testing.T) {
	// With notified evictions, the hidden owner's PutE must clear the
	// hidden bit so no discovery is needed later.
	f := testFabric(t, 4, stashFactory(1, 1, 0, false), withL1(1, 1))
	load(t, f, 0, 0) // E at core 0
	load(t, f, 1, 4) // same bank: core 1's request stashes block 0's entry
	bk := f.Banks[0]
	if bk.stats.HiddenSet.Value() == 0 {
		t.Fatal("entry was not stashed")
	}
	load(t, f, 0, 1) // core 0's 1-line L1 evicts block 0 -> PutE to bank 0
	if bk.stats.HiddenCleared.Value() == 0 {
		t.Fatal("PutE did not clear the hidden bit")
	}
	load(t, f, 2, 0)
	if bk.stats.DiscoveryBroadcasts.Value() != 0 {
		t.Fatal("discovery ran although the hidden bit was cleared")
	}
	finishAndAudit(t, f)
}

func TestHiddenDirtyWritebackClearsBitAndData(t *testing.T) {
	f := testFabric(t, 4, stashFactory(1, 1, 0, false), withL1(1, 1))
	store(t, f, 0, 0) // M at core 0
	load(t, f, 1, 4)  // same bank: stashes block 0's entry (hidden, dirty)
	bk := f.Banks[0]
	if bk.stats.HiddenSet.Value() == 0 {
		t.Fatal("entry was not stashed")
	}
	load(t, f, 0, 1) // core 0 evicts block 0 -> PutM (hidden writeback)
	if bk.stats.HiddenCleared.Value() == 0 {
		t.Fatal("hidden PutM did not clear the bit")
	}
	load(t, f, 2, 0) // oracle: must see core 0's value from the LLC
	finishAndAudit(t, f)
}

func TestLLCEvictionOfHiddenBlockDiscovers(t *testing.T) {
	// Force an LLC set conflict on a hidden block: its eviction must
	// broadcast a discovery-invalidate to maintain inclusion.
	f := testFabric(t, 1, stashFactory(1, 1, 0, false), withLLC(1, 2), withL1(4, 2))
	store(t, f, 0, 0)
	load(t, f, 0, 1) // stashes block 0's entry (dir has 1 slot)
	load(t, f, 0, 2) // LLC (2 lines) must evict a line; eventually hits hidden 0
	load(t, f, 0, 3)
	bk := f.Banks[0]
	if bk.stats.LLCEvictHidden.Value() == 0 {
		t.Fatalf("no hidden LLC eviction (untracked=%d recalls=%d)",
			bk.stats.LLCEvictUntracked.Value(), bk.stats.LLCEvictRecall.Value())
	}
	load(t, f, 0, 0) // refetch from memory: oracle checks dirty data survived
	finishAndAudit(t, f)
}

func TestLLCEvictionRecallsTrackedBlock(t *testing.T) {
	f := testFabric(t, 1, fullMapFactory(), withLLC(1, 2), withL1(4, 2))
	store(t, f, 0, 0)
	store(t, f, 0, 1)
	store(t, f, 0, 2) // LLC full: must recall a tracked dirty block
	bk := f.Banks[0]
	if bk.stats.LLCEvictRecall.Value() == 0 {
		t.Fatal("no LLC-eviction recall")
	}
	load(t, f, 0, 0)
	load(t, f, 0, 1)
	load(t, f, 0, 2)
	finishAndAudit(t, f)
}

func TestStashSingletonSharedMode(t *testing.T) {
	f := testFabric(t, 4, stashFactory(1, 1, 0, true))
	// Two cores share block 0 (2 sharers: not stashable even in this
	// mode); then core 2 reads block 4 in the same bank -> recall needed.
	load(t, f, 0, 0)
	load(t, f, 1, 0)
	load(t, f, 2, 4)
	bk := f.Banks[0]
	if v := bk.stats.InvsSent[ReasonRecall].Value(); v == 0 {
		t.Fatal("two-sharer entry was not recalled")
	}
	// Now a singleton-S: core 3 reads block 8 (same bank). Block 4 is E at
	// core 2 (stashable); after it is stashed, make a singleton-S entry and
	// force another conflict.
	load(t, f, 3, 8)
	finishAndAudit(t, f)
}

// --- cuckoo -----------------------------------------------------------------

func TestCuckooAbsorbsConflicts(t *testing.T) {
	f := testFabric(t, 4, cuckooFactory(4, 8)) // 32 entries per bank
	for i := 0; i < 24; i++ {
		load(t, f, 0, mem.Block(i)) // only 8 stay in L1; rest notified away
	}
	finishAndAudit(t, f)
}

// --- mixed/regression -------------------------------------------------------

func TestAllOrganizationsSameScenario(t *testing.T) {
	factories := map[string]dirFactory{
		"fullmap": fullMapFactory(),
		"sparse":  sparseFactory(2, 2, 0),
		"stash":   stashFactory(2, 2, 0, false),
		"cuckoo":  cuckooFactory(2, 4),
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			f := testFabric(t, 4, mk)
			for i := 0; i < 20; i++ {
				c := i % 4
				b := mem.Block(i % 6)
				access(t, f, c, b, i%3 == 0)
			}
			// Shared hot block with writes.
			for i := 0; i < 8; i++ {
				store(t, f, i%4, 100)
				load(t, f, (i+1)%4, 100)
			}
			finishAndAudit(t, f)
		})
	}
}

func TestProcessorsDrive(t *testing.T) {
	f := testFabric(t, 4, stashFactory(2, 2, 0, false))
	sources := make([]AccessSource, 4)
	for c := 0; c < 4; c++ {
		var accs []mem.Access
		for i := 0; i < 50; i++ {
			b := mem.Block((c*13 + i*3) % 24)
			accs = append(accs, mem.Access{Addr: mem.AddrOf(b), Write: i%4 == 0})
		}
		sources[c] = &SliceSource{Accesses: accs}
	}
	procs, err := f.AttachProcessors(sources)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Drive(procs, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		if p.Stats().AccessesCompleted.Value() != 50 {
			t.Fatalf("core %d completed %d accesses", p.id, p.stats.AccessesCompleted.Value())
		}
		if !p.Finished() || p.FinishCycle() == 0 {
			t.Fatal("processor did not record completion")
		}
	}
}

func TestDriveDetectsEventLimit(t *testing.T) {
	f := testFabric(t, 2, fullMapFactory())
	srcs := []AccessSource{
		&SliceSource{Accesses: []mem.Access{{Addr: 0}, {Addr: 64}}},
		&SliceSource{Accesses: []mem.Access{{Addr: 128}}},
	}
	procs, _ := f.AttachProcessors(srcs)
	if err := f.Drive(procs, 3); err == nil {
		t.Fatal("Drive with a tiny event limit should fail")
	}
}

func TestSilentEvictionsEndToEnd(t *testing.T) {
	f := testFabric(t, 4, sparseFactory(2, 2, 0), withSilentEvictions())
	for i := 0; i < 40; i++ {
		access(t, f, i%4, mem.Block(i%12), i%5 == 0)
	}
	f.Engine.Run(0)
	if err := f.Checker.Err(); err != nil {
		t.Fatal(err)
	}
	// Note: the full audit's precision check is skipped in silent mode by
	// design; run the rest.
	if bad := Audit(f); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
}

func TestMsgStringAndReasonNames(t *testing.T) {
	for mt := MsgGetS; mt <= MsgDiscoverResp; mt++ {
		if mt.String() == "" {
			t.Fatal("empty message name")
		}
	}
	for r := ReasonDemand; r <= ReasonLLCEvict; r++ {
		if r.String() == "" {
			t.Fatal("empty reason name")
		}
	}
	m := &Msg{Type: MsgGetS, Block: 4, From: 2}
	if m.String() == "" {
		t.Fatal("empty message string")
	}
}

func TestSimultaneousUpgradeRace(t *testing.T) {
	// Both cores hold the block Shared and store "at the same time": the
	// directory serializes the upgrades; exactly one in-place grant and one
	// full-data grant; the oracle checks the final values.
	f := testFabric(t, 4, fullMapFactory())
	load(t, f, 0, 9)
	load(t, f, 1, 9)
	srcs := []AccessSource{
		&SliceSource{Accesses: []mem.Access{{Addr: mem.AddrOf(9), Write: true}}},
		&SliceSource{Accesses: []mem.Access{{Addr: mem.AddrOf(9), Write: true}}},
		&SliceSource{}, &SliceSource{},
	}
	procs, _ := f.AttachProcessors(srcs)
	if err := f.Drive(procs, 1_000_000); err != nil {
		t.Fatal(err)
	}
	// Exactly one M copy remains.
	owners := 0
	for c := 0; c < 4; c++ {
		if l1State(f, c, 9) == mem.Modified {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d Modified copies after racing upgrades, want 1", owners)
	}
	load(t, f, 2, 9) // observes the last writer
	finishAndAudit(t, f)
}

func TestReadersRaceSingleWriter(t *testing.T) {
	// One writer hammers a block while three readers poll it.
	f := testFabric(t, 4, stashFactory(2, 2, 0, false))
	mk := func(write bool) AccessSource {
		accs := make([]mem.Access, 100)
		for i := range accs {
			accs[i] = mem.Access{Addr: mem.AddrOf(9), Write: write}
		}
		return &SliceSource{Accesses: accs}
	}
	procs, _ := f.AttachProcessors([]AccessSource{mk(true), mk(false), mk(false), mk(false)})
	if err := f.Drive(procs, 10_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestDeliverUnknownTypePanics: MsgType.ToBank routes every type it does
// not name to the L1, so a type outside the protocol must still panic on
// both delivery paths, the NoC endpoint and the model checker's direct one.
func TestDeliverUnknownTypePanics(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	bogus := MsgUnblock + 1
	for name, deliver := range map[string]func(*Msg){
		"tile.Deliver":  func(m *Msg) { (&tile{l1: f.L1s[0], bank: f.Banks[0]}).Deliver(&noc.Message{Payload: m}) },
		"DeliverDirect": func(m *Msg) { f.DeliverDirect(0, m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted message type %v", name, bogus)
				}
			}()
			deliver(f.newMsg(bogus, 0))
		}()
	}
}
