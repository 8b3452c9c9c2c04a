package coherence

import (
	"fmt"
	"testing"
	"unsafe"
)

// Pool invariants, checked under the pool's poison mode so any
// use-after-release or double-release panics at the faulting site during
// the run:
//
//   - Quiescence: after a workload drains, every Msg and every directory
//     TBE has been released back to its pool (inUse == 0). A leak here
//     would grow without bound in long simulations.
//   - Bounded high water: the pools' peak live counts scale with the
//     machine's concurrency limit (cores x MSHRs), not with the length of
//     the run. Each outstanding transaction keeps a small constant number
//     of point-to-point messages in flight, plus at most one discovery or
//     invalidation broadcast of O(cores) probes, so a generous linear
//     bound (10x + headroom for broadcast overlap) separates "bounded by
//     structure" from "grows with workload" by orders of magnitude: the
//     workloads below issue 400 accesses per core, each of several
//     messages, so a leak would blow through the bound immediately.
func checkPools(t *testing.T, f *Fabric, label string) {
	t.Helper()
	cores, mshrs := f.Params.Cores, f.Params.MSHRs
	if mshrs < 1 {
		mshrs = 1
	}
	inUse, high := f.MsgPoolStats()
	if inUse != 0 {
		t.Errorf("%s: %d messages still unreleased after drain", label, inUse)
	}
	if bound := 10*cores*mshrs + 16; high > bound {
		t.Errorf("%s: message pool high water %d exceeds %d (10 x cores x MSHRs + 16)",
			label, high, bound)
	}
	for i, bk := range f.Banks {
		tbeUse, tbeHigh := bk.tbePoolStats()
		if tbeUse != 0 {
			t.Errorf("%s: bank %d has %d TBEs still live after drain", label, i, tbeUse)
		}
		// Per bank: at most every core's every MSHR transaction homed
		// here, each with at most one eviction/recall sub-TBE, plus slack.
		if bound := 2*cores*mshrs + 4; tbeHigh > bound {
			t.Errorf("%s: bank %d TBE high water %d exceeds %d (2 x cores x MSHRs + 4)",
				label, i, tbeHigh, bound)
		}
	}
}

func TestMsgPoolInvariants(t *testing.T) {
	factories := map[string]dirFactory{
		"fullmap": fullMapFactory(),
		"sparse":  sparseFactory(2, 2, 0),
		"stash":   stashFactory(2, 2, 0, false),
		"cuckoo":  cuckooFactory(2, 4),
	}
	for name, mk := range factories {
		for _, cores := range []int{4, 16} {
			for seed := int64(1); seed <= 2; seed++ {
				label := fmt.Sprintf("%s/%dc/seed%d", name, cores, seed)
				t.Run(label, func(t *testing.T) {
					f := testFabric(t, cores, mk)
					f.SetPoolDebug(true)
					srcs := randomSources(cores, 400, 12, 30, 0.3, seed)
					procs, err := f.AttachProcessors(srcs)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.Drive(procs, 50_000_000); err != nil {
						t.Fatal(err)
					}
					checkPools(t, f, label)
				})
			}
		}
	}
}

// TestMsgPoolInvariantsShuffled re-checks the pool invariants under
// permuted same-cycle event ordering: release points must be correct for
// every legal interleaving, not just the engine's accidental FIFO order.
func TestMsgPoolInvariantsShuffled(t *testing.T) {
	for _, mk := range []dirFactory{stashFactory(1, 2, 0, false), sparseFactory(1, 2, 0)} {
		for shuffle := uint64(1); shuffle <= 4; shuffle++ {
			f := testFabric(t, 4, mk, withL1(2, 2), withLLC(2, 2))
			f.Engine.SetShuffleSeed(shuffle)
			f.SetPoolDebug(true)
			srcs := randomSources(4, 300, 8, 6, 0.4, int64(shuffle))
			procs, err := f.AttachProcessors(srcs)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Drive(procs, 50_000_000); err != nil {
				t.Fatalf("shuffle seed %d: %v", shuffle, err)
			}
			checkPools(t, f, fmt.Sprintf("shuffle%d", shuffle))
		}
	}
}

// TestMsgPoolInvariantsDiscoveryChurn drives the tiny-everything stash
// configuration (maximal stash-eviction/discovery/recall churn) with
// poison mode on, since broadcasts are where message ownership is easiest
// to get wrong.
func TestMsgPoolInvariantsDiscoveryChurn(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := testFabric(t, 4, stashFactory(1, 1, 0, false),
			withL1(1, 1), withLLC(1, 2))
		f.SetPoolDebug(true)
		srcs := randomSources(4, 200, 6, 4, 0.4, seed)
		procs, err := f.AttachProcessors(srcs)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Drive(procs, 50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkPools(t, f, fmt.Sprintf("churn/seed%d", seed))
	}
}

// TestMsgSize pins the pooled message at 72 bytes: its destination node,
// which the fabric's delivery reads, fits in padding the fields already
// left.
func TestMsgSize(t *testing.T) {
	if n := unsafe.Sizeof(Msg{}); n != 72 {
		t.Errorf("Msg is %d bytes, want 72", n)
	}
}
