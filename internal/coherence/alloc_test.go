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
	i := 0
	assertZeroAllocs(t, "two-hop-miss", func() {
		d.do(t, i%2, wr)
		i++
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
	i := 0
	assertZeroAllocs(t, "discovery", func() {
		p := phases[i%len(phases)]
		d.do(t, p.core, p.a)
		i++
	})
}
