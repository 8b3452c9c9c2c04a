package noc

import (
	"testing"

	"repro/internal/sim"
)

func newTestMesh(t *testing.T, w, h int) *Mesh {
	t.Helper()
	m, err := New(Config{Width: w, Height: h, RouterLatency: 3, LinkLatency: 1, LinkBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCoord(t *testing.T) {
	m := newTestMesh(t, 4, 4)
	cases := []struct {
		id   NodeID
		x, y int
	}{{0, 0, 0}, {3, 3, 0}, {4, 0, 1}, {15, 3, 3}}
	for _, c := range cases {
		x, y := m.Coord(c.id)
		if x != c.x || y != c.y {
			t.Errorf("Coord(%d) = (%d,%d), want (%d,%d)", c.id, x, y, c.x, c.y)
		}
	}
}

// TestHops: a one-flit message records one flit-hop per link of its XY
// route, so the count is the Manhattan distance between the nodes.
func TestHops(t *testing.T) {
	cases := []struct {
		a, b NodeID
		want int64
	}{{0, 0, 0}, {0, 3, 3}, {0, 15, 6}, {5, 6, 1}, {5, 9, 1}, {12, 3, 6}}
	for _, c := range cases {
		m := newTestMesh(t, 4, 4)
		m.Route(c.a, c.b, ClassRequest, 1, 0)
		if got := m.TotalFlitHops(); got != c.want {
			t.Errorf("route %d->%d crossed %d links, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeliveryLatencyUncontended(t *testing.T) {
	m := newTestMesh(t, 4, 4)
	// 0 -> 3: 3 hops. latency = injection router (3) + per hop (1 link + 3 router) = 3 + 3*4 = 15.
	if at := m.Route(0, 3, ClassRequest, 1, 0); at != 15 {
		t.Fatalf("arrival at %d, want 15", at)
	}
	// The same route later, on idle links, takes the same 15 cycles.
	if at := m.Route(0, 3, ClassRequest, 1, 100); at != 115 {
		t.Fatalf("arrival at %d, want 115", at)
	}
}

func TestSelfDelivery(t *testing.T) {
	m := newTestMesh(t, 2, 2)
	if at := m.Route(1, 1, ClassAck, 1, 10); at != 13 {
		t.Fatalf("self turnaround arrives at %d, want cycle 13", at)
	}
	if m.TotalFlitHops() != 0 {
		t.Fatal("self delivery should not use links")
	}
	if m.Messages(ClassAck) != 1 {
		t.Fatalf("%d ack messages counted, want 1", m.Messages(ClassAck))
	}
}

func TestContentionSerializes(t *testing.T) {
	m := newTestMesh(t, 4, 1)
	// Two 5-flit data messages on the same route: the second must queue
	// behind the first at each shared link.
	first := m.Route(0, 1, ClassResponse, 5, 0)
	second := m.Route(0, 1, ClassResponse, 5, 0)
	if d := second - first; d != 5 {
		t.Fatalf("second message delayed by %d, want 5 (serialization)", d)
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	m := newTestMesh(t, 4, 4)
	a := m.Route(0, 1, ClassRequest, 5, 0)
	b := m.Route(4, 5, ClassRequest, 5, 0)
	if a != b {
		t.Fatalf("disjoint paths interfered: %d vs %d", a, b)
	}
}

func TestFlitHopAccounting(t *testing.T) {
	m := newTestMesh(t, 4, 4)
	m.Route(0, 15, ClassResponse, 5, 0) // 6 hops * 5 flits
	m.Route(0, 1, ClassRequest, 1, 0)   // 1 hop * 1 flit
	if got := m.FlitHops(ClassResponse); got != 30 {
		t.Errorf("response flit-hops = %d, want 30", got)
	}
	if got := m.FlitHops(ClassRequest); got != 1 {
		t.Errorf("request flit-hops = %d, want 1", got)
	}
	if m.TotalFlitHops() != 31 {
		t.Errorf("total = %d, want 31", m.TotalFlitHops())
	}
	if m.Messages(ClassResponse) != 1 || m.Messages(ClassRequest) != 1 {
		t.Error("message counts wrong")
	}
}

// TestXYRouteAvoidsDeadlockPattern: all-to-all traffic on a 3x3 mesh, sent
// in one cycle, is routed in full: every message arrives no earlier than
// it would alone, and the flit-hops add up to every XY path's length.
func TestXYRouteAvoidsDeadlockPattern(t *testing.T) {
	const n = 9
	m := newTestMesh(t, 3, 3)
	var sent, hops int64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			sx, sy := m.Coord(NodeID(s))
			dx, dy := m.Coord(NodeID(d))
			h := abs(sx-dx) + abs(sy-dy)
			alone := sim.Cycle(3 + 4*h)
			if at := m.Route(NodeID(s), NodeID(d), ClassRequest, 1, 0); at < alone {
				t.Fatalf("%d->%d arrives at %d, before its uncontended %d", s, d, at, alone)
			}
			sent++
			hops += int64(h)
		}
	}
	if got := m.Messages(ClassRequest); got != sent {
		t.Errorf("counted %d of %d messages", got, sent)
	}
	if got := m.TotalFlitHops(); got != hops {
		t.Errorf("%d flit-hops, want %d", got, hops)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestReset: a reset mesh routes like a new one, with every link free from
// cycle 0 and no traffic counted.
func TestReset(t *testing.T) {
	used := newTestMesh(t, 4, 4)
	for i := 0; i < 4; i++ {
		used.Route(0, 15, ClassResponse, 5, 0)
		used.Route(5, 5, ClassAck, 1, 0)
	}
	used.Reset()
	if *used.Stats() != (Stats{}) {
		t.Fatalf("stats after reset %+v, want zero", *used.Stats())
	}
	fresh := newTestMesh(t, 4, 4)
	for i := 0; i < 4; i++ {
		if got, want := used.Route(0, 15, ClassResponse, 5, 0), fresh.Route(0, 15, ClassResponse, 5, 0); got != want {
			t.Fatalf("message %d after reset arrives at %d, a new mesh's at %d", i, got, want)
		}
	}
	if *used.Stats() != *fresh.Stats() {
		t.Errorf("stats %+v, a new mesh's %+v", *used.Stats(), *fresh.Stats())
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 2, LinkBandwidth: 1}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(Config{Width: 2, Height: 2, LinkBandwidth: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestZeroFlitPanics(t *testing.T) {
	m := newTestMesh(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-flit message did not panic")
		}
	}()
	m.Route(0, 1, ClassRequest, 0, 0)
}

func TestClassString(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("class %d has empty or duplicate name %q", c, s)
		}
		seen[s] = true
	}
}

func TestLinkBandwidthReducesSerialization(t *testing.T) {
	run := func(bw int) sim.Cycle {
		m, err := New(Config{Width: 2, Height: 1, RouterLatency: 1, LinkLatency: 1, LinkBandwidth: bw})
		if err != nil {
			t.Fatal(err)
		}
		var last sim.Cycle
		for i := 0; i < 4; i++ {
			last = m.Route(0, 1, ClassResponse, 4, 0)
		}
		return last
	}
	narrow, wide := run(1), run(4)
	if wide >= narrow {
		t.Fatalf("4-flit/cycle link (%d) not faster than 1-flit/cycle (%d)", wide, narrow)
	}
}
