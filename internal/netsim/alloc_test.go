package netsim

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/tvatime"
)

// TestSteadyStateNoAllocs is the dynamic twin of the //tva:hotpath
// annotations on the event core: once the slab, the buckets and the
// output queue have reached their working size, send → transmit →
// deliver across a link allocates nothing.
func TestSteadyStateNoAllocs(t *testing.T) {
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	b.Handler = HandlerFunc(func(*packet.Packet, *Iface) {})
	ia, _ := Connect(a, b, 10_000_000, 10*tvatime.Millisecond, nil, nil)
	a.SetDefault(ia)
	// Four back-to-back packets a round, so the output queue backs up;
	// 13.7 ms a round delivers them all and walks the rounds' events
	// through every bucket during warm-up. The packets are the test's
	// own, re-sent each round: the pool (which -race makes lossy) stays
	// out of the count.
	var pkts [4]*packet.Packet
	for i := range pkts {
		pkts[i] = &packet.Packet{Src: 1, Dst: 2, TTL: 64, Size: 1000}
	}
	round := func() {
		for _, pkt := range pkts {
			a.Send(pkt)
		}
		s.Run(s.Now().Add(13700 * tvatime.Microsecond))
	}
	for i := 0; i < 4*numBuckets; i++ {
		round()
	}
	sent := ia.Stats().SentPkts
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("%.1f allocs per round, want 0", allocs)
	}
	if ia.Stats().SentPkts-sent < 4*500 {
		t.Errorf("measured rounds moved %d packets, want %d", ia.Stats().SentPkts-sent, 4*500)
	}
}

// TestTeardownReturnsPoolToBaseline stops a run with packets in every
// place the simulator can hold one — serializing, propagating, queued,
// parked in a rate limiter — and requires Teardown to release them all
// without touching a counter.
func TestTeardownReturnsPoolToBaseline(t *testing.T) {
	baseline := packet.Live()
	s := New(1)
	a, r, b := s.NewNode("a"), s.NewNode("r"), s.NewNode("b")
	r.Handler = HandlerFunc(func(pkt *packet.Packet, _ *Iface) { r.Send(pkt) })
	b.Handler = &releaseSink{sim: s}
	ia, _ := Connect(a, r, 10_000_000, 20*tvatime.Millisecond, nil, nil)
	tva := sched.NewTVA(sched.TVAConfig{LinkBps: 100_000, RequestFraction: 0.05})
	rb, _ := Connect(r, b, 100_000, 20*tvatime.Millisecond, tva, nil)
	a.SetDefault(ia)
	r.SetDefault(rb)
	rb.SetImpairment(ImpairConfig{Seed: 1, DupProb: 0.5})
	for i := 0; i < 40; i++ {
		pkt := packet.AcquirePacket()
		pkt.Src, pkt.Dst, pkt.TTL = packet.Addr(i+1), 2, 64
		pkt.Size = 500
		pkt.Class = packet.ClassRegular
		if i%4 == 0 {
			pkt.NewHdr().Kind = packet.KindRequest
			pkt.Class = packet.ClassRequest
		}
		a.Send(pkt)
	}
	s.Run(tvatime.Time(150 * tvatime.Millisecond))
	inFlight := 0
	for _, p := range s.slab {
		if p.pkt != nil {
			inFlight++
		}
	}
	if inFlight < 2 || rb.Sched.Len() == 0 {
		t.Fatalf("test setup: %d packets on events, %d queued; want both", inFlight, rb.Sched.Len())
	}
	stats, lost := rb.Stats(), rb.FaultDrops.Total()
	s.Teardown()
	if got := packet.Live(); got != baseline {
		t.Errorf("pool gauge %d after Teardown, want baseline %d", got, baseline)
	}
	if rb.Stats() != stats || rb.FaultDrops.Total() != lost || tva.Drops.Total() != 0 {
		t.Errorf("Teardown moved a counter: stats %+v -> %+v, fault drops %d -> %d, enqueue drops %d",
			stats, rb.Stats(), lost, rb.FaultDrops.Total(), tva.Drops.Total())
	}
	if s.Step() {
		t.Error("an event survived Teardown")
	}
}
