package netsim

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// releaseSink counts deliveries and returns pooled packets, recording
// arrival times and the Src field as a sequence label.
type releaseSink struct {
	sim  *Sim
	srcs []packet.Addr
	at   []tvatime.Time
}

func (r *releaseSink) Receive(pkt *packet.Packet, in *Iface) {
	r.srcs = append(r.srcs, pkt.Src)
	r.at = append(r.at, r.sim.Now())
	packet.Release(pkt)
}

// lossyLink builds a 1 Mb/s a→b link with the given impairment and
// returns (sim, a, a's iface, sink).
func lossyLink(t *testing.T, seed int64, cfg ImpairConfig) (*Sim, *Node, *Iface, *releaseSink) {
	t.Helper()
	s := New(seed)
	a, b := s.NewNode("a"), s.NewNode("b")
	sink := &releaseSink{sim: s}
	b.Handler = sink
	ia, _ := Connect(a, b, 1_000_000, 10*tvatime.Millisecond, nil, nil)
	a.SetDefault(ia)
	ia.SetImpairment(cfg)
	return s, a, ia, sink
}

func sendPooled(s *Sim, a *Node, src packet.Addr, size int) {
	pkt := packet.AcquirePacket()
	pkt.Src, pkt.Dst, pkt.TTL = src, 2, 64
	pkt.Size = size
	pkt.SentAt = s.Now()
	a.Send(pkt)
}

func TestImpairLossAllAccounted(t *testing.T) {
	baseline := packet.Live()
	s, a, ia, sink := lossyLink(t, 1, ImpairConfig{Seed: 7, LossProb: 1})
	const n = 20
	for i := 0; i < n; i++ {
		sendPooled(s, a, packet.Addr(i+1), 125)
	}
	s.Run(tvatime.FromSeconds(5))
	if len(sink.srcs) != 0 {
		t.Errorf("delivered %d packets across a fully lossy wire", len(sink.srcs))
	}
	if got := ia.FaultDrops.Get(telemetry.DropLinkLoss); got != n {
		t.Errorf("link-loss drops = %d, want %d", got, n)
	}
	if ia.Stats().LostPkts != n || ia.Stats().DroppedPkts != 0 {
		t.Errorf("LostPkts=%d DroppedPkts=%d, want %d and 0 (wire loss is not an enqueue drop)",
			ia.Stats().LostPkts, ia.Stats().DroppedPkts, n)
	}
	if got := packet.Live(); got != baseline {
		t.Errorf("pool gauge %d after run, want baseline %d (lost packets must be released)", got, baseline)
	}
}

func TestImpairLossDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) ([]packet.Addr, []tvatime.Time, uint64) {
		s, a, ia, sink := lossyLink(t, 1, ImpairConfig{Seed: seed, LossProb: 0.3})
		for i := 0; i < 200; i++ {
			sendPooled(s, a, packet.Addr(i+1), 125)
		}
		s.Run(tvatime.FromSeconds(10))
		return sink.srcs, sink.at, ia.Stats().LostPkts
	}
	s1, t1, l1 := run(42)
	s2, t2, l2 := run(42)
	if l1 != l2 || len(s1) != len(s2) {
		t.Fatalf("same seed diverged: lost %d vs %d, delivered %d vs %d", l1, l2, len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] || t1[i] != t2[i] {
			t.Fatalf("same seed diverged at delivery %d: (%v,%v) vs (%v,%v)", i, s1[i], t1[i], s2[i], t2[i])
		}
	}
	if l1 == 0 || l1 == 200 {
		t.Errorf("lost %d of 200 at p=0.3; the PRNG is not being consulted", l1)
	}
	_, _, l3 := run(43)
	if l3 == l1 {
		t.Logf("note: seeds 42 and 43 lost the same count (%d); allowed but unusual", l1)
	}
}

func TestImpairDuplication(t *testing.T) {
	baseline := packet.Live()
	s, a, ia, sink := lossyLink(t, 1, ImpairConfig{Seed: 9, DupProb: 1})
	const n = 10
	for i := 0; i < n; i++ {
		sendPooled(s, a, packet.Addr(i+1), 125)
	}
	s.Run(tvatime.FromSeconds(5))
	if len(sink.srcs) != 2*n {
		t.Errorf("delivered %d, want %d (every packet duplicated)", len(sink.srcs), 2*n)
	}
	imp := ia.impair
	if imp.Duplicated != n {
		t.Errorf("Duplicated = %d, want %d", imp.Duplicated, n)
	}
	if got := packet.Live(); got != baseline {
		t.Errorf("pool gauge %d after run, want baseline %d (clones must not double-release)", got, baseline)
	}
}

func TestImpairJitterReordersDeterministically(t *testing.T) {
	run := func() []packet.Addr {
		s, a, _, sink := lossyLink(t, 1, ImpairConfig{Seed: 3, Jitter: 50 * tvatime.Millisecond})
		for i := 0; i < 10; i++ {
			sendPooled(s, a, packet.Addr(i+1), 125) // 1ms serialization each
		}
		s.Run(tvatime.FromSeconds(5))
		return sink.srcs
	}
	got := run()
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10 (jitter must not lose packets)", len(got))
	}
	inverted := false
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inverted = true
		}
	}
	if !inverted {
		t.Errorf("arrival order %v never inverted; 50ms jitter over 1ms spacing should reorder", got)
	}
	again := run()
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("same seed, different arrival order: %v vs %v", got, again)
		}
	}
}

func TestImpairDropIf(t *testing.T) {
	s, a, ia, sink := lossyLink(t, 1, ImpairConfig{
		DropIf: func(pkt *packet.Packet) bool { return pkt.Src == 5 },
	})
	for i := 1; i <= 8; i++ {
		sendPooled(s, a, packet.Addr(i), 125)
	}
	s.Run(tvatime.FromSeconds(5))
	if len(sink.srcs) != 7 {
		t.Fatalf("delivered %d, want 7", len(sink.srcs))
	}
	for _, src := range sink.srcs {
		if src == 5 {
			t.Errorf("DropIf target was delivered")
		}
	}
	if got := ia.FaultDrops.Get(telemetry.DropLinkLoss); got != 1 {
		t.Errorf("link-loss drops = %d, want 1", got)
	}
}

func TestOutageWindow(t *testing.T) {
	baseline := packet.Live()
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	sink := &releaseSink{sim: s}
	b.Handler = sink
	// 1 Mb/s, 10 ms: a 1250-byte packet serializes in 10 ms.
	ia, _ := Connect(a, b, 1_000_000, 10*tvatime.Millisecond, nil, nil)
	a.SetDefault(ia)
	ia.ScheduleOutage(tvatime.Time(50*tvatime.Millisecond), 50*tvatime.Millisecond)

	// A: clear of the window entirely (delivered at 20 ms).
	s.At(0, func() { sendPooled(s, a, 1, 1250) })
	// C: in flight when the window opens (launched 45 ms, delivery due
	// 55 ms — cut).
	s.At(tvatime.Time(35*tvatime.Millisecond), func() { sendPooled(s, a, 3, 1250) })
	// D: sent during the window; held in queue, transmitted on the
	// up-edge at 100 ms, delivered 120 ms.
	s.At(tvatime.Time(60*tvatime.Millisecond), func() { sendPooled(s, a, 4, 1250) })
	s.Run(tvatime.FromSeconds(5))

	if len(sink.srcs) != 2 || sink.srcs[0] != 1 || sink.srcs[1] != 4 {
		t.Fatalf("delivered %v, want [1 4]", sink.srcs)
	}
	if got, want := sink.at[1], tvatime.Time(120*tvatime.Millisecond); got != want {
		t.Errorf("held packet delivered at %v, want %v (queued across the window)", got, want)
	}
	if got := ia.FaultDrops.Get(telemetry.DropLinkDown); got != 1 {
		t.Errorf("link-down drops = %d, want 1 (the in-flight cut)", got)
	}
	if got := packet.Live(); got != baseline {
		t.Errorf("pool gauge %d after run, want baseline %d", got, baseline)
	}
}

func TestIfaceFlushReturnsPoolToBaseline(t *testing.T) {
	baseline := packet.Live()
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	sink := &releaseSink{sim: s}
	b.Handler = sink
	// TVA scheduler so the flush exercises the rate-limiter holdover
	// path too; slow link so everything queues.
	tva := sched.NewTVA(sched.TVAConfig{LinkBps: 10_000, RequestFraction: 0.05})
	ia, _ := Connect(a, b, 10_000, tvatime.Millisecond, tva, nil)
	a.SetDefault(ia)
	for i := 0; i < 12; i++ {
		pkt := packet.AcquirePacket()
		pkt.Src, pkt.Dst, pkt.TTL = packet.Addr(i+1), 2, 64
		pkt.Size = 1000
		if i%3 == 0 {
			h := pkt.NewHdr()
			h.Kind = packet.KindRequest
			pkt.Class = packet.ClassRequest
		} else {
			pkt.Class = packet.ClassRegular
		}
		a.Send(pkt)
	}
	// Run briefly so one packet is mid-serialization and the rest are
	// queued, then crash the interface.
	s.Run(tvatime.Time(5 * tvatime.Millisecond))
	queued := ia.Sched.Len()
	if queued == 0 {
		t.Fatal("test setup: nothing queued at flush time")
	}
	n := ia.Flush(telemetry.DropRouterRestart)
	if n != queued {
		t.Errorf("Flush released %d, want the %d queued", n, queued)
	}
	if ia.Sched.Len() != 0 {
		t.Errorf("scheduler still holds %d packets after flush", ia.Sched.Len())
	}
	if got := ia.FaultDrops.Get(telemetry.DropRouterRestart); got != uint64(n) {
		t.Errorf("router-restart drops = %d, want %d", got, n)
	}
	// Let the in-flight packet land, then the gauge must be back.
	s.Run(tvatime.FromSeconds(5))
	if got := packet.Live(); got != baseline {
		t.Errorf("pool gauge %d after flush+drain, want baseline %d", got, baseline)
	}
}
