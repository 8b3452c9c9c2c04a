package coherence

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
)

func withThreeHop() fabricOpt {
	return func(c *BuildConfig) { c.Params.ThreeHopForwarding = true }
}

func TestThreeHopDirtySharing(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory(), withThreeHop())
	store(t, f, 0, 7) // M at core 0
	load(t, f, 1, 7)  // must be forwarded core0 -> core1 (oracle checks data)
	if st := l1State(f, 0, 7); st != mem.Shared {
		t.Fatalf("owner state = %v, want S", st)
	}
	if st := l1State(f, 1, 7); st != mem.Shared {
		t.Fatalf("requester state = %v, want S", st)
	}
	finishAndAudit(t, f)
}

func TestThreeHopWriteTakeover(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory(), withThreeHop())
	store(t, f, 0, 7)
	store(t, f, 1, 7) // forwarded DataM core0 -> core1
	if st := l1State(f, 0, 7); st != mem.Invalid {
		t.Fatalf("old owner state = %v, want I", st)
	}
	if st := l1State(f, 1, 7); st != mem.Modified {
		t.Fatalf("new owner state = %v, want M", st)
	}
	load(t, f, 2, 7) // sees core 1's value via forwarding again
	finishAndAudit(t, f)
}

func TestThreeHopReducesLatencyVsTwoHop(t *testing.T) {
	// A dirty-sharing ping-pong between distant cores must see lower miss
	// latency with forwarding: owner->requester is one network trip instead
	// of owner->dir->requester. (Total drain time is not the right metric:
	// the Unblock handshake lengthens the bank-side transaction without
	// delaying the requester.)
	run := func(threeHop bool) int64 {
		opts := []fabricOpt{}
		if threeHop {
			opts = append(opts, withThreeHop())
		}
		f := testFabric(t, 4, fullMapFactory(), opts...)
		for i := 0; i < 20; i++ {
			store(t, f, i%2, 9) // block 9 homed on bank 1; cores 0 and 1 trade it
		}
		finishAndAudit(t, f)
		sum := int64(0)
		for _, l1 := range f.L1s {
			sum += l1.Stats().MissLatency.Sum()
		}
		return sum
	}
	two, three := run(false), run(true)
	if three >= two {
		t.Fatalf("three-hop miss latency (%d) not lower than two-hop (%d)", three, two)
	}
}

func TestThreeHopFallbackWhenOwnerGone(t *testing.T) {
	// Silent clean evictions: the owner silently drops its E copy; the
	// forwarded request finds nothing and the bank must serve the
	// requester from the LLC.
	f := testFabric(t, 4, fullMapFactory(), withThreeHop(), withSilentEvictions(), withL1(1, 1))
	load(t, f, 0, 0)  // E at core 0
	load(t, f, 0, 4)  // silently evicts block 0 (1-line L1); dir entry stale
	load(t, f, 1, 0)  // FwdGetS to core 0 finds nothing -> bank serves
	store(t, f, 2, 0) // exercise the GetM fallback path too
	finishAndAudit(t, f)
}

func TestThreeHopOwnerInEvictionBuffer(t *testing.T) {
	// With notified evictions the Put is processed before a later request
	// (point-to-point FIFO), so forwarding out of the eviction buffer needs
	// a concurrent requester: drive two processors so the FwdGetS can race
	// the PutM.
	f := testFabric(t, 4, fullMapFactory(), withThreeHop(), withL1(1, 1))
	srcs := []AccessSource{
		&SliceSource{Accesses: []mem.Access{
			{Addr: mem.AddrOf(0), Write: true}, // M at core 0
			{Addr: mem.AddrOf(4)},              // evicts block 0 (PutM in flight)
		}},
		&SliceSource{Accesses: []mem.Access{
			{Addr: mem.AddrOf(0)}, // may catch core 0 mid-writeback
		}},
		&SliceSource{}, &SliceSource{},
	}
	procs, _ := f.AttachProcessors(srcs)
	if err := f.Drive(procs, 1_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestThreeHopRandomConcurrent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runRandom(t, stashFactory(2, 2, 0, false), 4, seed, withThreeHop())
		runRandom(t, sparseFactory(2, 2, 0), 4, seed, withThreeHop())
	}
	// And with fuzzed event ordering.
	for shuffle := uint64(1); shuffle <= 3; shuffle++ {
		f := testFabric(t, 4, stashFactory(1, 2, 0, false), withThreeHop(), withL1(2, 2))
		f.Engine.SetShuffleSeed(shuffle)
		srcs := randomSources(4, 300, 8, 6, 0.4, int64(shuffle))
		procs, _ := f.AttachProcessors(srcs)
		if err := f.Drive(procs, 50_000_000); err != nil {
			t.Fatalf("shuffle %d: %v", shuffle, err)
		}
	}
}

func TestThreeHopForwardedTrafficCounted(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory(), withThreeHop())
	store(t, f, 0, 7)
	load(t, f, 1, 7)
	// The forwarded DataS travels core0 -> core1 as response-class traffic.
	if f.Mesh.Messages(noc.ClassResponse) == 0 {
		t.Fatal("no response traffic recorded")
	}
	finishAndAudit(t, f)
}

// TestThreeHopUnblockRegression pins the fix for a real bug: with MSHRs,
// the bank used to close a forwarded transaction on the owner's ack alone,
// so the block's next transaction could send messages that overtook the
// still-in-flight owner→requester grant (an unordered path) and the bank
// then served stale LLC data. The Unblock handshake closes the window.
// Sixteen cores with long routes and high MLP make the overtake likely.
func TestThreeHopUnblockRegression(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := testFabric(t, 16, sparseFactory(4, 4, 0), withThreeHop(), withMSHRs(4))
		srcs := randomSources(16, 400, 10, 20, 0.4, seed)
		procs, _ := f.AttachProcessors(srcs)
		if err := f.Drive(procs, 100_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// And the stash + L2 + pointer-limit combination at 16 cores.
	f := testFabric(t, 16, stashFactory(2, 2, 0, false),
		withThreeHop(), withMSHRs(4), withL2(8, 4), withPointerLimit(2))
	srcs := randomSources(16, 300, 10, 12, 0.4, 9)
	procs, _ := f.AttachProcessors(srcs)
	if err := f.Drive(procs, 100_000_000); err != nil {
		t.Fatal(err)
	}
}
