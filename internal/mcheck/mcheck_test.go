package mcheck

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
)

// TestExhaustiveClean is the protocol gate: every directory organization
// must exhaust the 2-core/1-address state space with zero violations and
// no truncation.
func TestExhaustiveClean(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Cores: 2, Addrs: 1, Kind: kind})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation:\n%s", v)
			}
			if res.Truncated != "" {
				t.Errorf("search truncated (%s); the 2x1 space must be exhaustible", res.Truncated)
			}
			if res.States < 100 {
				t.Errorf("suspiciously small state space: %d states", res.States)
			}
			if res.Quiescent == 0 {
				t.Errorf("no quiescent states reached; audits never ran")
			}
			t.Logf("%s", res.Summary())
		})
	}
}

// TestConflictBounded drives two cores over two blocks that collide on a
// one-entry directory slice — the configuration where sparse recalls and
// stash stashing actually fire — under a depth bound.
func TestConflictBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded conflict exploration is a few seconds per kind")
	}
	for _, kind := range []string{"sparse", "stash", "stash-ss", "cuckoo"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Cores: 2, Addrs: 2, Kind: kind, MaxDepth: 3})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation:\n%s", v)
			}
			t.Logf("%s", res.Summary())
		})
	}
}

// TestReplayCounts pins how many worlds the 2x2 depth-2 conflict slice
// replays from the root: one per expanded node plus one per enabled action
// but the last, which reuses the world replayed to list them. A replay
// into a reset world counts like one into a new world.
func TestReplayCounts(t *testing.T) {
	for _, tc := range []struct {
		kind    string
		replays int
	}{{"sparse", 536}, {"stash", 504}} {
		e, err := explore(Config{Cores: 2, Addrs: 2, Kind: tc.kind, MaxDepth: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if e.replays != tc.replays {
			t.Errorf("%s: %d replays, want %d (%s)", tc.kind, e.replays, tc.replays, e.res.Summary())
		}
	}
}

// TestConflictSliceAllocs caps the allocations and the bytes of the
// sparse+stash 2x2 depth-2 pair, the benchmark's model-checker job. A pair
// builds four fabrics (two per exploration) and replays into reset ones
// otherwise, and a transition encodes and fingerprints its child without
// allocating, so what is left is the four builds and the growth of the
// node list and the visited set. The pair measured 606 allocations and
// 0.14 MB; the caps leave margins of about 65% and 80%. A search that
// encoded every parent into a string key and allocated two closures per
// encoding took 5,160 allocations and 0.44 MB, and one that built a
// fabric per replay 154k allocations and 12.4 MB.
func TestConflictSliceAllocs(t *testing.T) {
	const limit, maxMB = 1_000, 0.25
	pair := func() {
		for _, kind := range []string{"sparse", "stash"} {
			if _, err := Run(Config{Cores: 2, Addrs: 2, Kind: kind, MaxDepth: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(1, pair)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pair()
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%.0f allocations, %.2f MB per sparse+stash pair (limits %d, %.2f MB)", allocs, mb, limit, maxMB)
	if allocs > limit {
		t.Errorf("sparse+stash 2x2 depth-2 pair allocates %.0f times, want <= %d", allocs, limit)
	}
	if mb > maxMB {
		t.Errorf("sparse+stash 2x2 depth-2 pair allocates %.2f MB, want <= %.2f MB", mb, maxMB)
	}
}

// TestRootWorldBytes caps what the benchmark's set-up measurement builds:
// a sparse+stash 2x2 pair run with MaxStates 1, which builds and encodes
// one root world per organization. The cap is the 17,776 bytes such a pair
// allocated before tag arrays filled their sets on demand, with no margin,
// because of a cliff: the measurement repeats the pair 200 times from a
// collected heap, and under go1.24.0 those 3.6 MB sit just below the
// runtime's 4 MB minimum heap goal. A root world 6% over the cap (a Cache
// padded from 128 to 264 bytes, which made a pair 18,864 bytes) pushes the
// loop past the goal, and set-up then pays the page faults of a growing
// heap: an 8 s mcheck-2x2 run took ~4.5x the minor faults and read setup_s
// ~70% worse for an unchanged build. A change that needs more bytes here
// must take them out of the world elsewhere.
func TestRootWorldBytes(t *testing.T) {
	const maxBytes, pairs = 17_776, 20
	pair := func() {
		for _, kind := range []string{"sparse", "stash"} {
			if _, err := Run(Config{Cores: 2, Addrs: 2, Kind: kind, MaxDepth: 2, MaxStates: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pair()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	perPair := (after.TotalAlloc - before.TotalAlloc) / pairs
	t.Logf("a root-only sparse+stash pair allocates %d bytes (cap %d)", perPair, maxBytes)
	if perPair > maxBytes {
		t.Errorf("a root-only sparse+stash pair allocates %d bytes, want at most %d", perPair, maxBytes)
	}
}

// TestReplayAllocFree checks that once the explorer holds its worlds,
// replaying any node of the 2x2 depth-2 slices allocates nothing: a reset
// world keeps every pool, queue and callback its fabric and transport grew.
func TestReplayAllocFree(t *testing.T) {
	for _, kind := range []string{"sparse", "stash"} {
		e, err := explore(Config{Cores: 2, Addrs: 2, Kind: kind, MaxDepth: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for id := range e.nodes {
			allocs := testing.AllocsPerRun(2, func() {
				w, err := e.replay(int32(id))
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				e.release(w)
			})
			if allocs != 0 {
				t.Errorf("%s: replaying node %d allocates %.1f times, want 0", kind, id, allocs)
			}
		}
	}
}

// TestEncodeAllocFree checks that once the explorer's buffers have grown,
// encoding and fingerprinting any node of the 2x2 depth-2 slices allocates
// nothing: the encoder walks directories through a callback bound once and
// renames stamps without a map.
func TestEncodeAllocFree(t *testing.T) {
	for _, kind := range Kinds() {
		e, err := explore(Config{Cores: 2, Addrs: 2, Kind: kind, MaxDepth: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for id := range e.nodes {
			w, err := e.replay(int32(id))
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			allocs := testing.AllocsPerRun(2, func() { fingerprintOf(e.encode(w)) })
			e.release(w)
			if allocs != 0 {
				t.Errorf("%s: encoding node %d allocates %.1f times, want 0", kind, id, allocs)
			}
		}
	}
}

// TestNodeSize keeps a visited state's node record at 24 bytes: with its
// 16-byte fingerprint, the node list is most of a deep search's memory.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n > 24 {
		t.Errorf("node is %d bytes, want at most 24", n)
	}
}

// TestFingerprintsInjective re-walks every transition of the 2x2 depth-4
// slices of all five organizations, encoding each child state, and
// requires distinct encodings to have distinct fingerprints. The distinct
// encodings must also number exactly the states the search counted, so
// the fingerprinted search found every state an exact one would.
func TestFingerprintsInjective(t *testing.T) {
	if testing.Short() {
		t.Skip("re-walking the depth-4 slices takes a few seconds")
	}
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			e, err := explore(Config{Cores: 2, Addrs: 2, Kind: kind, MaxDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			byFP := make(map[fingerprint]string, e.res.States)
			record := func(k []byte) {
				fp := fingerprintOf(k)
				if prev, ok := byFP[fp]; ok && prev != string(k) {
					t.Fatalf("two encodings share fingerprint %x", fp)
				}
				byFP[fp] = string(k)
			}
			var acts []action
			for id := range e.nodes {
				w, err := e.replay(int32(id))
				if err != nil {
					t.Fatal(err)
				}
				if id == 0 {
					record(e.encode(w))
				}
				acts = append(acts[:0], e.enabled(w)...)
				e.release(w)
				for _, a := range acts {
					cw, err := e.replay(int32(id))
					if err != nil {
						t.Fatal(err)
					}
					if err := e.apply(cw, a); err != nil {
						t.Fatal(err)
					}
					record(e.encode(cw))
					e.release(cw)
				}
			}
			if len(byFP) != e.res.States {
				t.Errorf("%d distinct encodings, but the search counted %d states", len(byFP), e.res.States)
			}
		})
	}
}

// TestSilentAndThreeHopVariants covers the protocol's two optional modes
// on the exhaustible configuration.
func TestSilentAndThreeHopVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("variant exploration is a few seconds")
	}
	for _, tc := range []struct {
		name   string
		silent bool
		three  bool
	}{{"silent-evict", true, false}, {"three-hop", false, true}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Cores: 2, Addrs: 1, Kind: "stash", SilentEvict: tc.silent, ThreeHop: tc.three})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation:\n%s", v)
			}
			t.Logf("%s", res.Summary())
		})
	}
}

// TestDroppedInvAckYieldsDeadlock mutates the protocol at the transport
// boundary — the first invalidation acknowledgment is silently dropped —
// and demands that the checker produce a deadlock counterexample: the
// bank's transaction waits for an ack that never arrives. The filter is
// stateful, so it also checks that every replay, into a recycled world or
// a new one, gets a fresh instance: otherwise a recycled world would
// deliver the ack its path dropped.
func TestDroppedInvAckYieldsDeadlock(t *testing.T) {
	e, err := explore(Config{
		Cores: 2, Addrs: 1, Kind: "stash",
		NewDropFilter: func() func(src, dst noc.NodeID, m *coherence.Msg) bool {
			dropped := false
			return func(src, dst noc.NodeID, m *coherence.Msg) bool {
				if !dropped && m.Type == coherence.MsgInvAck {
					dropped = true
					return true
				}
				return false
			}
		},
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	requireRecycledReplays(t, e)
	res := e.res
	if len(res.Violations) == 0 {
		t.Fatalf("dropped InvAck went undetected: %s", res.Summary())
	}
	v := res.Violations[0]
	if v.Kind != "deadlock" {
		t.Errorf("first violation kind = %q, want deadlock:\n%s", v.Kind, v)
	}
	if len(v.Trace) == 0 {
		t.Errorf("counterexample has no trace")
	}
	if len(v.Trace) > 10 {
		t.Errorf("counterexample is not minimal: %d steps\n%s", len(v.Trace), v)
	}
	t.Logf("minimal counterexample (%d steps):\n%s", len(v.Trace), v)
}

// stuckDirectory wraps a directory organization whose allocations never
// succeed: every Allocate reports every candidate busy, so a bank that
// needs an entry parks a retry whose firing parks the same retry again.
type stuckDirectory struct{ core.Directory }

func (stuckDirectory) Allocate(mem.Block, func(mem.Block) bool) core.AllocResult {
	return core.AllocResult{Outcome: core.AllocBlocked}
}

// TestStuckRetryYieldsLivelock mutates the directory so that no allocation
// ever succeeds and demands a livelock counterexample: the first miss
// parks an allocation retry that loops back to the same state forever.
// It is the livelock check's test, and with it the test of the parent
// state's key, which only that check reads.
func TestStuckRetryYieldsLivelock(t *testing.T) {
	res, err := Run(Config{
		Cores: 2, Addrs: 1, Kind: "sparse",
		WrapDirectory: func(d core.Directory) core.Directory { return stuckDirectory{d} },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("a retry stuck forever went undetected: %s", res.Summary())
	}
	v := res.Violations[0]
	if v.Kind != "livelock" {
		t.Fatalf("first violation kind = %q, want livelock:\n%s", v.Kind, v)
	}
	want := []string{"core 0: load blk 0x0", "deliver GetS(blk 0x0) node0->node0"}
	if !slices.Equal(v.Trace, want) {
		t.Errorf("counterexample = %q, want %q", v.Trace, want)
	}
	t.Logf("minimal counterexample (%d steps):\n%s", len(v.Trace), v)
}

// forgetfulStash wraps the stash directory and reports its stash
// evictions as plain allocations, modeling a bank that forgets to set the
// hidden bit: the dropped entry's private copy becomes untrackable.
type forgetfulStash struct{ core.Directory }

func (d forgetfulStash) Allocate(b mem.Block, busy func(mem.Block) bool) core.AllocResult {
	res := d.Directory.Allocate(b, busy)
	if res.Outcome == core.AllocStashed {
		res.Outcome = core.AllocOK
	}
	return res
}

// TestForgottenHiddenBitYieldsViolation mutates the stash path — a stashed
// entry's hidden bit is never set — and demands a tracking-lost
// counterexample from the per-state invariants.
func TestForgottenHiddenBitYieldsViolation(t *testing.T) {
	res, err := Run(Config{
		Cores: 2, Addrs: 2, Kind: "stash", MaxDepth: 3,
		WrapDirectory: func(d core.Directory) core.Directory { return forgetfulStash{d} },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("forgotten hidden bit went undetected: %s", res.Summary())
	}
	v := res.Violations[0]
	if !strings.Contains(v.Message, "tracking lost") {
		t.Errorf("first violation = %q, want a tracking-lost report:\n%s", v.Message, v)
	}
	if len(v.Trace) == 0 || len(v.Trace) > 8 {
		t.Errorf("counterexample trace has %d steps, want short and nonempty:\n%s", len(v.Trace), v)
	}
	t.Logf("minimal counterexample (%d steps):\n%s", len(v.Trace), v)
}

// TestEncodingCanonical checks that two independently built initial worlds
// encode identically (the dedup key must be history-free), that the
// encoder actually distinguishes a perturbed state, and that replaying a
// node into a recycled world encodes exactly as replaying it into a newly
// built one, for every node of the 2x2 depth-3 slices (the shallowest in
// which bank retries park, so recycled worlds must drop parked retries).
func TestEncodingCanonical(t *testing.T) {
	e1 := &Explorer{cfg: Config{Cores: 2, Addrs: 2, Kind: "stash"}, enc: coherence.NewStateEncoder()}
	e1.cfg.setDefaults()
	e1.blocks = []mem.Block{0, 2}
	w1, err := e1.newWorld()
	if err != nil {
		t.Fatal(err)
	}
	k1 := string(e1.encode(w1))

	e2 := &Explorer{cfg: e1.cfg, enc: coherence.NewStateEncoder(), blocks: e1.blocks}
	w2, err := e2.newWorld()
	if err != nil {
		t.Fatal(err)
	}
	k2 := string(e2.encode(w2))
	if k1 != k2 {
		t.Errorf("fresh worlds encode differently (%d vs %d bytes)", len(k1), len(k2))
	}

	if err := e2.apply(w2, action{kind: aLoad, core: 0, addr: 0}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if string(e2.encode(w2)) == k1 {
		t.Errorf("state changed by a load encodes identically to the initial state")
	}

	for _, kind := range []string{"sparse", "stash"} {
		e, err := explore(Config{Cores: 2, Addrs: 2, Kind: kind, MaxDepth: 3})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		requireRecycledReplays(t, e)
	}
}

// requireRecycledReplays replays every node e explored into a recycled
// world and into a newly built one, and fails the test unless the two
// encode identically.
func requireRecycledReplays(t *testing.T, e *Explorer) {
	t.Helper()
	for id := range e.nodes {
		w, err := e.replay(int32(id))
		if err != nil {
			t.Fatalf("%s: %v", e.cfg.Kind, err)
		}
		recycled := string(e.encode(w))
		e.release(w)

		fresh, err := e.newWorld()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.drain(fresh); err != nil {
			t.Fatal(err)
		}
		for _, a := range e.path(int32(id)) {
			if err := e.apply(fresh, a); err != nil {
				t.Fatalf("%s: replaying node %d: %v", e.cfg.Kind, id, err)
			}
		}
		if string(e.encode(fresh)) != recycled {
			t.Errorf("%s: node %d encodes differently in a recycled world", e.cfg.Kind, id)
		}
	}
}

// BenchmarkExplore times the repository benchmark's model-checker job, the
// sparse and stash 2x2 conflict slices to depth 2, and reports the states
// it explores per second. `make bench-protocol` records it into
// BENCH_protocol.json.
func BenchmarkExplore(b *testing.B) {
	b.ReportAllocs()
	states := 0
	for i := 0; i < b.N; i++ {
		for _, kind := range []string{"sparse", "stash"} {
			res, err := Run(Config{Cores: 2, Addrs: 2, Kind: kind, MaxDepth: 2})
			if err != nil {
				b.Fatal(err)
			}
			states += res.States
		}
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}
