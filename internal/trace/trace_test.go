package trace

import (
	"math"
	"testing"

	"repro/internal/mem"
)

func validMix() Mix {
	return Mix{
		Name:        "t",
		PrivateFrac: 0.5, SharedReadFrac: 0.2, SharedRWFrac: 0.1,
		ProdConsFrac: 0.1, MigratoryFrac: 0.1,
		WriteFrac:     0.3,
		PrivateBlocks: 100, SharedBlocks: 50, ProdConsBlocks: 20, MigratoryBlocks: 10,
		MigratoryPhase: 8,
		ZipfS:          1.5,
	}
}

func TestMixValidate(t *testing.T) {
	if err := validMix().Validate(); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
	corrupt := []func(*Mix){
		func(m *Mix) { m.PrivateFrac = 0.9 },                        // sums to 1.4
		func(m *Mix) { m.WriteFrac = 1.5 },                          // out of range
		func(m *Mix) { m.PrivateBlocks = 0 },                        // used but empty
		func(m *Mix) { m.SharedBlocks = 0 },                         // used but empty
		func(m *Mix) { m.ProdConsBlocks = 0 },                       // used but empty
		func(m *Mix) { m.MigratoryBlocks = 0 },                      // used but empty
		func(m *Mix) { m.ZipfS = 0.5 },                              // must be >1 or 0
		func(m *Mix) { m.PrivateFrac, m.SharedReadFrac = 0.1, 0.1 }, // sums to 0.5
	}
	for i, f := range corrupt {
		m := validMix()
		f(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid mix accepted: %+v", i, m)
		}
	}
}

func TestScaled(t *testing.T) {
	m := validMix().Scaled(0.5)
	if m.PrivateBlocks != 50 || m.SharedBlocks != 25 || m.ProdConsBlocks != 10 || m.MigratoryBlocks != 5 {
		t.Fatalf("scaled sizes wrong: %+v", m)
	}
	tiny := validMix().Scaled(0.0001)
	if tiny.PrivateBlocks < 1 || tiny.MigratoryBlocks < 1 {
		t.Fatal("scaling must floor at 1 block")
	}
	// Fractions untouched.
	if tiny.PrivateFrac != 0.5 {
		t.Fatal("scaling changed fractions")
	}
}

func TestStreamLengthAndDeterminism(t *testing.T) {
	mk := func() *Stream {
		s, err := NewStream(validMix(), 2, 8, 500, 42)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	n := 0
	for {
		x, ok1 := a.Next()
		y, ok2 := b.Next()
		if ok1 != ok2 {
			t.Fatal("streams diverged in length")
		}
		if !ok1 {
			break
		}
		if x != y {
			t.Fatalf("streams diverged at %d: %v vs %v", n, x, y)
		}
		n++
	}
	if n != 500 {
		t.Fatalf("stream produced %d accesses, want 500", n)
	}
}

// TestMemoReplayMatchesFreshGeneration pins the memoization contract: a
// stream served from the memo must be access-for-access identical to the
// seeded generation it replaced. (TestStreamLengthAndDeterminism compares
// two fresh generations — both streams there are built before either
// publishes — so the replay path needs its own equivalence check.)
func TestMemoReplayMatchesFreshGeneration(t *testing.T) {
	// A seed no other test uses, so the first stream is guaranteed to
	// generate rather than replay.
	const seed = 987_653
	fresh, err := NewStream(validMix(), 3, 8, 400, seed)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.replay != nil {
		t.Fatal("first stream unexpectedly served from the memo")
	}
	var want []mem.Access
	for {
		a, ok := fresh.Next()
		if !ok {
			break
		}
		want = append(want, a)
	}
	replayed, err := NewStream(validMix(), 3, 8, 400, seed)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.replay == nil {
		t.Fatal("second stream with the same key did not hit the memo")
	}
	for i := 0; ; i++ {
		a, ok := replayed.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("replay ended after %d accesses, fresh produced %d", i, len(want))
			}
			break
		}
		if i >= len(want) || a != want[i] {
			t.Fatalf("replay diverged from fresh generation at access %d", i)
		}
	}
}

// drainStream returns every access s produces.
func drainStream(s *Stream) []mem.Access {
	var out []mem.Access
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// TestMemoBytesPerAccess pins the memo's cost: a published stream of n
// accesses holds 4n bytes of the budget.
func TestMemoBytesPerAccess(t *testing.T) {
	const seed, n = 987_654, 300
	s, err := NewStream(validMix(), 2, 8, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	memo.Lock()
	before := memo.held
	memo.Unlock()
	drainStream(s)
	memo.Lock()
	after := memo.held
	memo.Unlock()
	if got := after - before; got != 4*n {
		t.Fatalf("publishing %d accesses grew the memo by %d bytes, want %d", n, got, 4*n)
	}
}

// TestMemoSkipsUnpackableBlocks checks the packed form's guard: a stream
// that reaches a block of 2^31 or more is generated afresh every time,
// and matches its earlier generation.
func TestMemoSkipsUnpackableBlocks(t *testing.T) {
	mix := Mix{Name: "far", PrivateFrac: 1, WriteFrac: 0.5, PrivateBlocks: 64}
	// Core 30,000's private region starts above block 2^31.
	const core, cores, n, seed = 30_000, 30_001, 200, 987_655
	first, err := NewStream(mix, core, cores, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := drainStream(first)
	if b := want[0].Block(); b < memoBlockLimit {
		t.Fatalf("first access is to block %#x, want one at or above %#x", uint64(b), uint64(memoBlockLimit))
	}
	again, err := NewStream(mix, core, cores, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if again.replay != nil {
		t.Fatal("a stream with blocks at or above 2^31 was served from the memo")
	}
	got := drainStream(again)
	if len(got) != len(want) {
		t.Fatalf("regenerated %d accesses, first generation made %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("regeneration diverged at access %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestStreamSeedsAndCoresDiffer(t *testing.T) {
	collect := func(core int, seed int64) []mem.Access {
		s, _ := NewStream(validMix(), core, 8, 200, seed)
		var out []mem.Access
		for {
			a, ok := s.Next()
			if !ok {
				return out
			}
			out = append(out, a)
		}
	}
	same := func(a, b []mem.Access) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(collect(0, 1), collect(1, 1)) {
		t.Error("different cores produced identical streams")
	}
	if same(collect(0, 1), collect(0, 2)) {
		t.Error("different seeds produced identical streams")
	}
}

func TestStreamRegionFractions(t *testing.T) {
	m := validMix()
	s, _ := NewStream(m, 0, 4, 50_000, 7)
	counts := map[Region]int{}
	total := 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		counts[RegionOf(a.Block())]++
		total++
	}
	want := map[Region]float64{
		RegionPrivate:    m.PrivateFrac,
		RegionSharedRead: m.SharedReadFrac,
		RegionSharedRW:   m.SharedRWFrac,
		RegionProdCons:   m.ProdConsFrac,
		RegionMigratory:  m.MigratoryFrac,
	}
	for r, frac := range want {
		got := float64(counts[r]) / float64(total)
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("region %v: fraction %.3f, want %.3f±0.02", r, got, frac)
		}
	}
}

func TestPrivateRegionsDisjointAcrossCores(t *testing.T) {
	m := Mix{Name: "p", PrivateFrac: 1, WriteFrac: 0.5, PrivateBlocks: 5000}
	blocks := make([]map[mem.Block]bool, 4)
	for c := 0; c < 4; c++ {
		blocks[c] = map[mem.Block]bool{}
		s, _ := NewStream(m, c, 4, 20_000, 3)
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			blocks[c][a.Block()] = true
		}
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			for b := range blocks[i] {
				if blocks[j][b] {
					t.Fatalf("cores %d and %d share private block %#x", i, j, uint64(b))
				}
			}
		}
	}
}

func TestSharedReadIsReadOnly(t *testing.T) {
	m := Mix{Name: "sr", SharedReadFrac: 1, SharedBlocks: 64}
	s, _ := NewStream(m, 0, 4, 5000, 1)
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		if a.Write {
			t.Fatal("shared-read region produced a store")
		}
		if RegionOf(a.Block()) != RegionSharedRead {
			t.Fatalf("access outside shared-read region: %v", a)
		}
	}
}

func TestZipfConcentratesAccesses(t *testing.T) {
	count := func(zipfS float64) int {
		m := Mix{Name: "z", PrivateFrac: 1, WriteFrac: 0, PrivateBlocks: 1000, ZipfS: zipfS}
		s, _ := NewStream(m, 0, 1, 20_000, 5)
		distinct := map[mem.Block]bool{}
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			distinct[a.Block()] = true
		}
		return len(distinct)
	}
	uniform, skewed := count(0), count(1.8)
	if skewed >= uniform {
		t.Fatalf("zipf (%d distinct) not more concentrated than uniform (%d)", skewed, uniform)
	}
}

func TestMigratoryTokenAdvances(t *testing.T) {
	m := Mix{Name: "m", MigratoryFrac: 1, MigratoryBlocks: 4, MigratoryPhase: 8}
	s, _ := NewStream(m, 0, 2, 64, 1)
	var blocks []mem.Block
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		blocks = append(blocks, a.Block())
	}
	// Within a phase the block is constant; across the run it must change.
	first, changed := blocks[0], false
	for _, b := range blocks {
		if b != first {
			changed = true
		}
	}
	if !changed {
		t.Fatal("migratory token never advanced")
	}
}

func TestRemaining(t *testing.T) {
	s, _ := NewStream(validMix(), 0, 4, 10, 1)
	if s.Remaining() != 10 {
		t.Fatalf("Remaining = %d, want 10", s.Remaining())
	}
	s.Next()
	if s.Remaining() != 9 {
		t.Fatalf("Remaining = %d, want 9", s.Remaining())
	}
}

func TestNewStreamValidation(t *testing.T) {
	if _, err := NewStream(Mix{Name: "bad"}, 0, 4, 10, 1); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := NewStream(validMix(), 9, 4, 10, 1); err == nil {
		t.Error("out-of-range core accepted")
	}
}

func TestRegionNames(t *testing.T) {
	for r := RegionPrivate; r < numRegions; r++ {
		if r.String() == "" {
			t.Fatal("empty region name")
		}
	}
}
