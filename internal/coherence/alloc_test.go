package coherence

import (
	"testing"

	"repro/internal/mem"
)

// These tests pin the tentpole property of the pooled protocol: once the
// pools and tables are warm, the steady-state hot paths allocate nothing.
// Each scenario is a closed loop — after one iteration the machine is back
// in its starting state — so AllocsPerRun measures exactly the recurring
// protocol work, not one-time warm-up growth.

// driveAccess issues one access and drains the machine, using
// pre-constructed closures so the measurement loop itself is
// allocation-free.
type driveAccess struct {
	f    *Fabric
	done bool
	fn   func()
}

func newDriveAccess(f *Fabric) *driveAccess {
	d := &driveAccess{f: f}
	d.fn = func() { d.done = true }
	return d
}

func (d *driveAccess) do(t *testing.T, core int, a mem.Access) {
	d.done = false
	d.f.L1s[core].Access(a, d.fn)
	d.f.Engine.Run(0)
	if !d.done {
		t.Fatal("access did not complete")
	}
}

// assertZeroAllocs runs fn, one whole lap of a closed loop, as the
// measured op. A lap rather than a step, because AllocsPerRun rounds its
// average down: one allocation in one step of a two-step lap would read
// as 0.5 allocs/op, then 0.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, fn); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestAllocFreeL1Hit(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	f.Checker.SetEnabled(false)
	d := newDriveAccess(f)
	rd := mem.Access{Addr: mem.AddrOf(3)}
	d.do(t, 0, rd) // warm: install the line
	for i := 0; i < 20; i++ {
		d.do(t, 0, rd)
	}
	assertZeroAllocs(t, "l1-hit", func() { d.do(t, 0, rd) })
}

func TestAllocFreeTwoHopMiss(t *testing.T) {
	// Cores 0 and 1 ping-pong exclusive ownership of one block: every
	// access is a GetM that invalidates the other core (a two-hop miss
	// through the directory), and two accesses return to the start state.
	f := testFabric(t, 4, fullMapFactory())
	f.Checker.SetEnabled(false)
	d := newDriveAccess(f)
	wr := mem.Access{Addr: mem.AddrOf(3), Write: true}
	for i := 0; i < 20; i++ {
		d.do(t, i%2, wr)
	}
	assertZeroAllocs(t, "two-hop-miss", func() {
		d.do(t, 0, wr)
		d.do(t, 1, wr)
	})
}

func TestAllocFreeDiscovery(t *testing.T) {
	// One-entry stash slices with two conflicting blocks homed at bank 0:
	// allocating either block's directory entry silently stash-evicts the
	// other, hiding it. The four-phase store rotation below therefore makes
	// *every* access a discovery broadcast — the stored block is always
	// hidden with a remote exclusive owner — and after four phases the
	// ownership pattern repeats exactly.
	f := testFabric(t, 4, stashFactory(1, 1, 0, false))
	f.Checker.SetEnabled(false)
	d := newDriveAccess(f)
	w0 := mem.Access{Addr: mem.AddrOf(0), Write: true}
	w4 := mem.Access{Addr: mem.AddrOf(4), Write: true}
	phases := []struct {
		core int
		a    mem.Access
	}{
		{2, w0}, {3, w4}, {0, w0}, {1, w4},
	}
	// Warm: establish the rotation (first lap has cold misses; by the
	// third every phase is a discovery).
	for lap := 0; lap < 8; lap++ {
		for _, p := range phases {
			d.do(t, p.core, p.a)
		}
	}
	if f.Banks[0].Directory().Stats().StashEvictions.Value() == 0 {
		t.Fatal("scenario broken: no stash evictions, so no discovery traffic")
	}
	assertZeroAllocs(t, "discovery", func() {
		for _, p := range phases {
			d.do(t, p.core, p.a)
		}
	})
}

// loopStep is one access of a closed-loop scenario.
type loopStep struct {
	core int
	a    mem.Access
}

func rdStep(core int, b mem.Block) loopStep {
	return loopStep{core, mem.Access{Addr: mem.AddrOf(b)}}
}

func wrStep(core int, b mem.Block) loopStep {
	return loopStep{core, mem.Access{Addr: mem.AddrOf(b), Write: true}}
}

// TestAllocFreeProtocolVariants pins 0 allocs/op on the paths that only
// the protocol options reach: three-hop forwards, a private L2, entry
// recalls and limited-pointer broadcasts. Each loop returns the machine to
// its starting state; 40 warm-up laps grow every pool and table first, and
// exercised confirms the loop really takes the path it names.
func TestAllocFreeProtocolVariants(t *testing.T) {
	cases := []struct {
		name      string
		f         func(t *testing.T) *Fabric
		loop      []loopStep
		exercised func(f *Fabric) bool
	}{
		{
			// Every store is a GetM on an entry another core owns: a
			// FwdGetM, a forwarded DataM and the requester's Unblock.
			name: "threehop-getm-pingpong",
			f:    func(t *testing.T) *Fabric { return testFabric(t, 4, fullMapFactory(), withThreeHop()) },
			loop: []loopStep{wrStep(0, 3), wrStep(1, 3)},
			exercised: func(f *Fabric) bool {
				return f.Banks[3].stats.InvsSent[ReasonDemand].Value() > 0
			},
		},
		{
			// Core 0 upgrades its Shared copy to Modified, then core 1's
			// load is a FwdGetS to a Modified owner, leaving both Shared.
			name: "threehop-gets-from-modified",
			f:    func(t *testing.T) *Fabric { return testFabric(t, 4, fullMapFactory(), withThreeHop()) },
			loop: []loopStep{wrStep(0, 3), rdStep(1, 3)},
			exercised: func(f *Fabric) bool {
				return f.L1s[0].stats.Misses.Value() > 0 && l1State(f, 1, 3) == mem.Shared
			},
		},
		{
			// The two-hop GetM ping-pong with a private L2 behind each L1:
			// every Inv searches and clears both levels.
			name: "l2-getm-pingpong",
			f:    func(t *testing.T) *Fabric { return testFabric(t, 4, fullMapFactory(), withL2(8, 4)) },
			loop: []loopStep{wrStep(0, 3), wrStep(1, 3)},
			exercised: func(f *Fabric) bool {
				return f.Banks[3].stats.InvsSent[ReasonDemand].Value() > 0
			},
		},
		{
			// A one-line L1 over an L2: each load evicts the other block
			// into the L2 and fills from it locally, with no coherence
			// traffic.
			name: "l2-local-fill",
			f: func(t *testing.T) *Fabric {
				return testFabric(t, 4, fullMapFactory(), withL1(1, 1), withL2(8, 4))
			},
			loop:      []loopStep{rdStep(0, 0), rdStep(0, 1)},
			exercised: func(f *Fabric) bool { return f.L1s[0].stats.L2Hits.Value() > 0 },
		},
		{
			// One-entry sparse slices, two blocks homed at bank 0: each
			// miss recalls the other block's entry from its holder.
			name: "sparse-recall",
			f:    func(t *testing.T) *Fabric { return testFabric(t, 4, sparseFactory(1, 1, 0)) },
			loop: []loopStep{rdStep(0, 0), rdStep(1, 4)},
			exercised: func(f *Fabric) bool {
				return f.Banks[0].stats.InvsSent[ReasonRecall].Value() > 0
			},
		},
		{
			// Dir_1-B: two readers overflow the single pointer, so the
			// third core's store invalidates by broadcast.
			name: "ptr1-broadcast-inv",
			f:    func(t *testing.T) *Fabric { return testFabric(t, 4, fullMapFactory(), withPointerLimit(1)) },
			loop: []loopStep{rdStep(0, 5), rdStep(1, 5), wrStep(2, 5)},
			exercised: func(f *Fabric) bool {
				return f.Banks[1].stats.BroadcastInvalidations.Value() > 0
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.f(t)
			f.Checker.SetEnabled(false)
			d := newDriveAccess(f)
			for lap := 0; lap < 40; lap++ {
				for _, s := range tc.loop {
					d.do(t, s.core, s.a)
				}
			}
			if !tc.exercised(f) {
				t.Fatal("scenario broken: the loop does not take the path it names")
			}
			assertZeroAllocs(t, tc.name, func() {
				for _, s := range tc.loop {
					d.do(t, s.core, s.a)
				}
			})
		})
	}
}
