package noc

import (
	"testing"

	"repro/internal/sim"
)

type sink struct {
	got []*Message
	at  []sim.Cycle
	eng *sim.Engine
}

func (s *sink) Deliver(m *Message) {
	s.got = append(s.got, m)
	s.at = append(s.at, s.eng.Now())
}

func newTestMesh(t *testing.T, w, h int) (*sim.Engine, *Mesh, []*sink) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := New(eng, Config{Width: w, Height: h, RouterLatency: 3, LinkLatency: 1, LinkBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]*sink, m.Nodes())
	for i := range sinks {
		sinks[i] = &sink{eng: eng}
		m.Attach(NodeID(i), sinks[i])
	}
	return eng, m, sinks
}

func TestCoord(t *testing.T) {
	_, m, _ := newTestMesh(t, 4, 4)
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

func TestHops(t *testing.T) {
	_, m, _ := newTestMesh(t, 4, 4)
	cases := []struct {
		a, b NodeID
		want int
	}{{0, 0, 0}, {0, 3, 3}, {0, 15, 6}, {5, 6, 1}, {5, 9, 1}, {12, 3, 6}}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeliveryLatencyUncontended(t *testing.T) {
	eng, m, sinks := newTestMesh(t, 4, 4)
	// 0 -> 3: 3 hops. latency = injection router (3) + per hop (1 link + 3 router) = 3 + 3*4 = 15.
	m.Send(&Message{Src: 0, Dst: 3, Class: ClassRequest, Flits: 1})
	eng.Run(0)
	if len(sinks[3].got) != 1 {
		t.Fatalf("message not delivered")
	}
	if sinks[3].at[0] != 15 {
		t.Fatalf("arrival at %d, want 15", sinks[3].at[0])
	}
}

func TestSelfDelivery(t *testing.T) {
	eng, m, sinks := newTestMesh(t, 2, 2)
	m.Send(&Message{Src: 1, Dst: 1, Class: ClassAck, Flits: 1})
	eng.Run(0)
	if len(sinks[1].got) != 1 || sinks[1].at[0] != 3 {
		t.Fatalf("self delivery at %v, want cycle 3", sinks[1].at)
	}
	if m.TotalFlitHops() != 0 {
		t.Fatal("self delivery should not use links")
	}
}

// TestSelfDeliveryKeepsOrderUnderShuffle: messages a node sends itself in
// one cycle tie, and a shuffle seed runs tied events in any order, yet
// they arrive in send order, across the queue's growth and wrap-around.
func TestSelfDeliveryKeepsOrderUnderShuffle(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		eng := sim.NewEngine()
		eng.SetShuffleSeed(seed)
		m, err := New(eng, Config{Width: 2, Height: 1, RouterLatency: 3, LinkLatency: 1, LinkBandwidth: 1})
		if err != nil {
			t.Fatal(err)
		}
		m.Attach(0, &sink{eng: eng})
		s := &sink{eng: eng}
		m.Attach(1, s)
		var sent []*Message
		for burst := 0; burst < 3; burst++ {
			for i := 0; i < 2+burst*5; i++ {
				msg := &Message{Src: 1, Dst: 1, Class: ClassAck, Flits: 1}
				sent = append(sent, msg)
				m.Send(msg)
			}
			eng.Run(0)
		}
		if len(s.got) != len(sent) {
			t.Fatalf("seed %d: %d of %d messages delivered", seed, len(s.got), len(sent))
		}
		for i := range sent {
			if s.got[i] != sent[i] {
				t.Fatalf("seed %d: delivery %d is not the %d-th message sent", seed, i, i)
			}
		}
	}
}

func TestContentionSerializes(t *testing.T) {
	eng, m, sinks := newTestMesh(t, 4, 1)
	// Two 5-flit data messages on the same route: the second must queue
	// behind the first at each shared link.
	m.Send(&Message{Src: 0, Dst: 1, Class: ClassResponse, Flits: 5})
	m.Send(&Message{Src: 0, Dst: 1, Class: ClassResponse, Flits: 5})
	eng.Run(0)
	if len(sinks[1].at) != 2 {
		t.Fatal("messages lost")
	}
	d := sinks[1].at[1] - sinks[1].at[0]
	if d != 5 {
		t.Fatalf("second message delayed by %d, want 5 (serialization)", d)
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	eng, m, sinks := newTestMesh(t, 4, 4)
	m.Send(&Message{Src: 0, Dst: 1, Class: ClassRequest, Flits: 5})
	m.Send(&Message{Src: 4, Dst: 5, Class: ClassRequest, Flits: 5})
	eng.Run(0)
	if sinks[1].at[0] != sinks[5].at[0] {
		t.Fatalf("disjoint paths interfered: %d vs %d", sinks[1].at[0], sinks[5].at[0])
	}
}

func TestFlitHopAccounting(t *testing.T) {
	eng, m, _ := newTestMesh(t, 4, 4)
	m.Send(&Message{Src: 0, Dst: 15, Class: ClassResponse, Flits: 5}) // 6 hops * 5 flits
	m.Send(&Message{Src: 0, Dst: 1, Class: ClassRequest, Flits: 1})   // 1 hop * 1 flit
	eng.Run(0)
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

func TestXYRouteAvoidsDeadlockPattern(t *testing.T) {
	// All-to-all traffic on a 3x3 mesh must fully drain.
	eng, m, sinks := newTestMesh(t, 3, 3)
	n := m.Nodes()
	sent := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			m.Send(&Message{Src: NodeID(s), Dst: NodeID(d), Class: ClassRequest, Flits: 1})
			sent++
		}
	}
	eng.Run(0)
	got := 0
	for _, s := range sinks {
		got += len(s.got)
	}
	if got != sent {
		t.Fatalf("delivered %d of %d messages", got, sent)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	eng := sim.NewEngine()
	m, _ := New(eng, DefaultConfig(2, 2))
	m.Attach(0, &sink{eng: eng})
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	m.Attach(0, &sink{eng: eng})
}

func TestNoEndpointPanics(t *testing.T) {
	eng := sim.NewEngine()
	m, _ := New(eng, DefaultConfig(2, 2))
	m.Attach(0, &sink{eng: eng})
	defer func() {
		if recover() == nil {
			t.Fatal("send to unattached node did not panic")
		}
	}()
	m.Send(&Message{Src: 0, Dst: 1, Class: ClassRequest, Flits: 1})
}

func TestBadConfigRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{Width: 0, Height: 2, LinkBandwidth: 1}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(eng, Config{Width: 2, Height: 2, LinkBandwidth: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestZeroFlitPanics(t *testing.T) {
	eng, m, _ := newTestMesh(t, 2, 2)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("zero-flit message did not panic")
		}
	}()
	m.Send(&Message{Src: 0, Dst: 1, Class: ClassRequest, Flits: 0})
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
		eng := sim.NewEngine()
		m, err := New(eng, Config{Width: 2, Height: 1, RouterLatency: 1, LinkLatency: 1, LinkBandwidth: bw})
		if err != nil {
			t.Fatal(err)
		}
		s := &sink{eng: eng}
		m.Attach(0, &sink{eng: eng})
		m.Attach(1, s)
		for i := 0; i < 4; i++ {
			m.Send(&Message{Src: 0, Dst: 1, Class: ClassResponse, Flits: 4})
		}
		eng.Run(0)
		return s.at[len(s.at)-1]
	}
	narrow, wide := run(1), run(4)
	if wide >= narrow {
		t.Fatalf("4-flit/cycle link (%d) not faster than 1-flit/cycle (%d)", wide, narrow)
	}
}
