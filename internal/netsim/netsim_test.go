package netsim

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/tvatime"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(tvatime.FromSeconds(2), func() { order = append(order, 2) })
	s.At(tvatime.FromSeconds(1), func() { order = append(order, 1) })
	s.At(tvatime.FromSeconds(1), func() { order = append(order, 11) }) // same time: FIFO
	s.At(tvatime.FromSeconds(3), func() { order = append(order, 3) })
	s.Run(tvatime.FromSeconds(10))
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := New(1)
	fired := false
	s.At(tvatime.FromSeconds(5), func() { fired = true })
	s.Run(tvatime.FromSeconds(1))
	if fired {
		t.Error("event beyond the horizon fired")
	}
	if s.Now() != tvatime.FromSeconds(1) {
		t.Errorf("Now = %v, want 1s", s.Now())
	}
	s.Run(tvatime.FromSeconds(10))
	if !fired {
		t.Error("pending event did not fire on a later Run")
	}
}

func TestAfterNesting(t *testing.T) {
	s := New(1)
	var at2 tvatime.Time
	s.After(tvatime.Second, func() {
		s.After(tvatime.Second, func() { at2 = s.Now() })
	})
	s.Run(tvatime.FromSeconds(5))
	if at2 != tvatime.FromSeconds(2) {
		t.Errorf("nested After fired at %v, want 2s", at2)
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(tvatime.Second, func() { n++ })
	s.Run(tvatime.FromSeconds(5) + 1)
	if n != 5 {
		t.Errorf("Every fired %d times in 5s, want 5", n)
	}
}

func TestEveryStop(t *testing.T) {
	s := New(1)
	n := 0
	var stop func()
	stop = s.Every(tvatime.Second, func() {
		n++
		if n == 3 {
			stop()
		}
	})
	s.Run(tvatime.FromSeconds(10) + 1)
	if n != 3 {
		t.Errorf("stopped ticker fired %d times, want 3", n)
	}

	// Stopping before the first tick cancels the whole series.
	m := 0
	stop2 := s.Every(tvatime.Second, func() { m++ })
	stop2()
	s.Run(tvatime.FromSeconds(20) + 1)
	if m != 0 {
		t.Errorf("ticker stopped before first tick fired %d times, want 0", m)
	}
}

// collector is a Handler recording deliveries with times.
type collector struct {
	sim  *Sim
	pkts []*packet.Packet
	at   []tvatime.Time
}

func (c *collector) Receive(pkt *packet.Packet, in *Iface) {
	c.pkts = append(c.pkts, pkt)
	c.at = append(c.at, c.sim.Now())
}

func TestLinkTimingBandwidthAndDelay(t *testing.T) {
	s := New(1)
	a := s.NewNode("a")
	b := s.NewNode("b")
	sink := &collector{sim: s}
	b.Handler = sink
	// 1 Mb/s, 10 ms: a 1250-byte packet serializes in 10 ms and
	// arrives at 20 ms.
	ia, _ := Connect(a, b, 1_000_000, 10*tvatime.Millisecond, nil, nil)
	a.SetDefault(ia)
	a.Send(&packet.Packet{Src: 1, Dst: 2, Size: 1250})
	s.Run(tvatime.FromSeconds(1))
	if len(sink.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sink.pkts))
	}
	want := 20 * tvatime.Millisecond
	got := sink.at[0].Sub(0)
	if got != want {
		t.Errorf("delivery at %v, want %v", got, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	sink := &collector{sim: s}
	b.Handler = sink
	ia, _ := Connect(a, b, 1_000_000, 0, nil, nil)
	a.SetDefault(ia)
	for i := 0; i < 3; i++ {
		a.Send(&packet.Packet{Dst: 2, Size: 1250}) // 10ms each
	}
	s.Run(tvatime.FromSeconds(1))
	if len(sink.at) != 3 {
		t.Fatalf("delivered %d, want 3", len(sink.at))
	}
	for i, want := range []tvatime.Duration{10, 20, 30} {
		if got := sink.at[i].Sub(0); got != want*tvatime.Millisecond {
			t.Errorf("pkt %d delivered at %v, want %vms", i, got, want)
		}
	}
}

func TestQueueDropWhenFull(t *testing.T) {
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	sink := &collector{sim: s}
	b.Handler = sink
	ia, _ := Connect(a, b, 1_000_000, 0, sched.NewDropTailPkts(2), nil)
	a.SetDefault(ia)
	dropped := 0
	ia.OnDrop = func(*packet.Packet) { dropped++ }
	// First packet goes into transmission immediately; next two queue;
	// the rest drop.
	for i := 0; i < 6; i++ {
		a.Send(&packet.Packet{Dst: 2, Size: 1250})
	}
	s.Run(tvatime.FromSeconds(1))
	if len(sink.pkts) != 3 {
		t.Errorf("delivered %d, want 3", len(sink.pkts))
	}
	if dropped != 3 || ia.Stats().DroppedPkts != 3 {
		t.Errorf("dropped %d (stats %d), want 3", dropped, ia.Stats().DroppedPkts)
	}
}

func TestRouting(t *testing.T) {
	s := New(1)
	a, r, b, c := s.NewNode("a"), s.NewNode("r"), s.NewNode("b"), s.NewNode("c")
	sb := &collector{sim: s}
	sc := &collector{sim: s}
	b.Handler = sb
	c.Handler = sc
	r.Handler = HandlerFunc(func(pkt *packet.Packet, in *Iface) { r.Send(pkt) })

	ia, _ := Connect(a, r, 1e6, 0, nil, nil)
	_, rb := Connect(b, r, 1e6, 0, nil, nil) // rb is r's iface toward b
	_, rc := Connect(c, r, 1e6, 0, nil, nil)
	a.SetDefault(ia)
	r.AddRoute(packet.Addr(2), rb)
	r.AddRoute(packet.Addr(3), rc)

	a.Send(&packet.Packet{Dst: 2, Size: 100})
	a.Send(&packet.Packet{Dst: 3, Size: 100})
	a.Send(&packet.Packet{Dst: 4, Size: 100}) // unroutable at r: dropped
	s.Run(tvatime.FromSeconds(1))
	if len(sb.pkts) != 1 || len(sc.pkts) != 1 {
		t.Errorf("routing misdelivered: b=%d c=%d", len(sb.pkts), len(sc.pkts))
	}
}

func TestBidirectionalLink(t *testing.T) {
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	var aGot, bGot int
	a.Handler = HandlerFunc(func(pkt *packet.Packet, in *Iface) { aGot++ })
	b.Handler = HandlerFunc(func(pkt *packet.Packet, in *Iface) {
		bGot++
		b.Send(&packet.Packet{Dst: 1, Size: 100})
	})
	ia, ib := Connect(a, b, 1e6, tvatime.Millisecond, nil, nil)
	a.SetDefault(ia)
	b.SetDefault(ib)
	a.Send(&packet.Packet{Dst: 2, Size: 100})
	s.Run(tvatime.FromSeconds(1))
	if bGot != 1 || aGot != 1 {
		t.Errorf("ping-pong failed: a=%d b=%d", aGot, bGot)
	}
}

func TestUtilization(t *testing.T) {
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	b.Handler = HandlerFunc(func(*packet.Packet, *Iface) {})
	ia, _ := Connect(a, b, 1_000_000, 0, nil, nil)
	a.SetDefault(ia)
	// 12500 bytes over 1s at 1 Mb/s = 10% utilization.
	for i := 0; i < 10; i++ {
		a.Send(&packet.Packet{Dst: 2, Size: 1250})
	}
	s.Run(tvatime.FromSeconds(1))
	u := ia.Utilization(tvatime.Second)
	if u < 0.09 || u > 0.11 {
		t.Errorf("utilization = %.3f, want 0.10", u)
	}
}

func TestRateLimitedSchedulerWakeup(t *testing.T) {
	// A scheduler that returns retry times must still drain fully (the
	// link must wake itself up).
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	sink := &collector{sim: s}
	b.Handler = sink
	tvaSched := sched.NewTVA(sched.TVAConfig{LinkBps: 1_000_000, RequestFraction: 0.01,
		RequestQueueBytes: 1 << 20})
	ia, _ := Connect(a, b, 1_000_000, 0, tvaSched, nil)
	a.SetDefault(ia)
	for i := 0; i < 100; i++ {
		h := &packet.CapHdr{Kind: packet.KindRequest}
		a.Send(&packet.Packet{Dst: 2, Size: 250, Class: packet.ClassRequest, Hdr: h})
	}
	s.Run(tvatime.FromSeconds(60))
	if len(sink.pkts) != 100 {
		t.Fatalf("rate-limited backlog did not drain: %d/100", len(sink.pkts))
	}
	// 25 KB at 1% of 1 Mb/s = 1250 B/s takes ≈16s after the initial
	// burst: deliveries must be spread out, not instantaneous.
	if last := sink.at[len(sink.at)-1]; last < tvatime.FromSeconds(10) {
		t.Errorf("backlog drained too fast for the rate limit: %v", last)
	}
}
