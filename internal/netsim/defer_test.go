package netsim

import (
	"slices"
	"testing"

	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// The tests below hold the deferred transmit-done (txNext, deferredTx)
// to what an explicit transmit-done event at (done, seq) would do.
// Their link is 1 Mb/s with a 10 ms delay: a 1250-byte packet sent at
// t serializes until t+10 ms and arrives at t+20 ms.

const (
	deferSize    = 1250
	deferDone    = tvatime.Time(10 * tvatime.Millisecond)
	deferArrival = tvatime.Time(20 * tvatime.Millisecond)
)

func deferLink(q sched.Scheduler) (*Sim, *Node, *Iface, *releaseSink) {
	s := New(1)
	a, b := s.NewNode("a"), s.NewNode("b")
	sink := &releaseSink{sim: s}
	b.Handler = sink
	ia, _ := Connect(a, b, 1_000_000, 10*tvatime.Millisecond, q, nil)
	a.SetDefault(ia)
	return s, a, ia, sink
}

// steps runs the simulation dry one Step at a time and returns the
// number of events it ran.
func steps(s *Sim) int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

func TestIdleLinkEventCounts(t *testing.T) {
	const k = 6
	t.Run("spaced", func(t *testing.T) {
		s, a, ia, sink := deferLink(nil)
		for i := 0; i < k; i++ {
			sent := s.Now()
			sendPooled(s, a, packet.Addr(i+1), deferSize)
			if n := steps(s); n != 1 {
				t.Fatalf("packet %d over an idle link cost %d events, want 1 (its arrival)", i, n)
			}
			if got := sink.at[i].Sub(sent); got != 20*tvatime.Millisecond {
				t.Errorf("packet %d took %v, want 20ms", i, got)
			}
		}
		if st := ia.Stats(); st.SentPkts != k || st.SentBytes != k*deferSize {
			t.Errorf("sent %d packets / %d bytes, want %d / %d", st.SentPkts, st.SentBytes, k, k*deferSize)
		}
	})
	t.Run("burst", func(t *testing.T) {
		s, a, ia, sink := deferLink(nil)
		for i := 0; i < k; i++ {
			sendPooled(s, a, packet.Addr(i+1), deferSize)
		}
		// The first and last packets leave the queue empty; the
		// first's transmit-done comes back to serve the burst.
		if n := steps(s); n != 2*k-1 {
			t.Errorf("a %d-packet burst cost %d events, want %d", k, n, 2*k-1)
		}
		for i, at := range sink.at {
			if want := deferArrival + tvatime.Time(i)*deferDone; at != want {
				t.Errorf("packet %d arrived at %v, want %v", i, at, want)
			}
		}
		if st := ia.Stats(); st.SentPkts != k {
			t.Errorf("sent %d packets, want %d", st.SentPkts, k)
		}
	})
}

// TestDeferredTxDoneSeqTieBreak reads the link's counters at exactly
// done from two events, one scheduled before the send and one after:
// only the second comes after the transmit-done's place in the event
// order, so only it sees the packet's bytes.
func TestDeferredTxDoneSeqTieBreak(t *testing.T) {
	s, a, ia, _ := deferLink(nil)
	var before, after uint64
	s.At(deferDone, func() { before = ia.Stats().SentBytes })
	sendPooled(s, a, 1, deferSize)
	s.At(deferDone, func() { after = ia.Stats().SentBytes })
	s.Run(tvatime.FromSeconds(1))
	if before != 0 || after != deferSize {
		t.Errorf("readers at done saw %d and %d bytes sent, want 0 and %d", before, after, deferSize)
	}
}

// TestRunToDoneCountsTransmission stops Run exactly at done: Run has
// run everything due by its horizon, the transmit-done included, so
// the packet counts as sent once it returns.
func TestRunToDoneCountsTransmission(t *testing.T) {
	s, a, ia, _ := deferLink(nil)
	sendPooled(s, a, 1, deferSize)
	s.Run(deferDone - 1)
	if got := ia.Stats().SentPkts; got != 0 {
		t.Errorf("SentPkts = %d just before done, want 0", got)
	}
	s.Run(deferDone)
	if got := ia.Stats().SentPkts; got != 1 {
		t.Errorf("SentPkts = %d once Run reached done, want 1", got)
	}
}

// TestArrivalAtDoneMeetsTxDoneOrder sends packets onto a two-packet
// queue at exactly the end of a deferred transmission, from events
// scheduled before and after it started. The one scheduled before
// meets the link still serializing with a packet queued; the
// transmit-done then serves that packet, and the two scheduled after
// find one free slot between them.
func TestArrivalAtDoneMeetsTxDoneOrder(t *testing.T) {
	s, a, ia, sink := deferLink(sched.NewDropTailPkts(2))
	var dropped []packet.Addr
	ia.OnDrop = func(p *packet.Packet) { dropped = append(dropped, p.Src) }
	send := func(src packet.Addr) func() { return func() { sendPooled(s, a, src, deferSize) } }
	s.At(deferDone, send(10))
	send(1)()
	s.At(deferDone, send(11))
	s.At(deferDone, send(12))
	s.At(deferDone/2, send(2))
	s.Run(tvatime.FromSeconds(1))
	if want := []packet.Addr{1, 2, 10, 11}; !slices.Equal(sink.srcs, want) {
		t.Errorf("delivered %v, want %v", sink.srcs, want)
	}
	if want := []packet.Addr{12}; !slices.Equal(dropped, want) {
		t.Errorf("dropped %v, want %v", dropped, want)
	}
}

// TestTracingKeepsArrivalOrder ties an arrival with a timer scheduled
// while the packet serialized. A flight recorder keeps every
// transmit-done explicit, so the two runs take different paths; the
// order at the tie must not depend on which.
func TestTracingKeepsArrivalOrder(t *testing.T) {
	order := func(traced bool) []string {
		s := New(1)
		if traced {
			s.Spans = trace.NewRecorder(64)
		}
		a, b := s.NewNode("a"), s.NewNode("b")
		var log []string
		b.Handler = HandlerFunc(func(pkt *packet.Packet, _ *Iface) {
			log = append(log, "arrival")
			packet.Release(pkt)
		})
		ia, _ := Connect(a, b, 1_000_000, 10*tvatime.Millisecond, nil, nil)
		a.SetDefault(ia)
		sendPooled(s, a, 1, deferSize)
		s.At(deferDone/2, func() {
			s.At(deferArrival, func() { log = append(log, "timer") })
		})
		s.Run(tvatime.FromSeconds(1))
		return log
	}
	if plain, traced := order(false), order(true); !slices.Equal(plain, traced) {
		t.Errorf("untraced run ordered %v, traced %v", plain, traced)
	}
}

// TestFaultMidSerialization starts an outage or an impairment while a
// deferred transmission serializes: either decides the packet's fate
// at its transmit-done, as launch does, and the packet still counts as
// sent.
func TestFaultMidSerialization(t *testing.T) {
	ms := func(n int64) tvatime.Time { return tvatime.Time(n * int64(tvatime.Millisecond)) }
	for _, c := range []struct {
		name   string
		events func(s *Sim, ia *Iface)
		reason telemetry.DropReason // zero: delivered
	}{
		{"down through done", func(s *Sim, ia *Iface) {
			s.At(ms(4), func() { ia.SetDown(true) })
		}, telemetry.DropLinkDown},
		{"down and up before done", func(s *Sim, ia *Iface) {
			s.At(ms(4), func() { ia.SetDown(true) })
			s.At(ms(6), func() { ia.SetDown(false) })
		}, 0},
		{"impaired before done", func(s *Sim, ia *Iface) {
			s.At(ms(4), func() { ia.SetImpairment(ImpairConfig{LossProb: 1}) })
		}, telemetry.DropLinkLoss},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseline := packet.Live()
			s, a, ia, sink := deferLink(nil)
			sendPooled(s, a, 1, deferSize)
			c.events(s, ia)
			var lostBefore, lostAtDone uint64
			s.At(deferDone-1, func() { lostBefore = ia.Stats().LostPkts })
			s.At(deferDone, func() { lostAtDone = ia.Stats().LostPkts })
			s.Run(tvatime.FromSeconds(1))
			if st := ia.Stats(); st.SentPkts != 1 {
				t.Errorf("SentPkts = %d, want 1", st.SentPkts)
			}
			if c.reason == 0 {
				if len(sink.at) != 1 || sink.at[0] != deferArrival || ia.Stats().LostPkts != 0 {
					t.Errorf("arrivals %v, lost %d; want one at %v", sink.at, ia.Stats().LostPkts, deferArrival)
				}
			} else {
				if len(sink.at) != 0 || ia.FaultDrops.Get(c.reason) != 1 {
					t.Errorf("arrivals %v, %v drops %d; want none and 1", sink.at, c.reason, ia.FaultDrops.Get(c.reason))
				}
				if lostBefore != 0 || lostAtDone != 1 {
					t.Errorf("lost %d just before done and %d at done, want 0 and 1", lostBefore, lostAtDone)
				}
			}
			if got := packet.Live(); got != baseline {
				t.Errorf("pool gauge %d after run, want baseline %d", got, baseline)
			}
		})
	}
	t.Run("teardown before done", func(t *testing.T) {
		baseline := packet.Live()
		s, a, ia, _ := deferLink(nil)
		sendPooled(s, a, 1, deferSize)
		s.At(ms(4), func() { ia.SetDown(true) })
		s.Run(ms(7))
		s.Teardown()
		if got := packet.Live(); got != baseline {
			t.Errorf("pool gauge %d after Teardown, want baseline %d", got, baseline)
		}
		if st := ia.Stats(); st.SentPkts != 0 || st.LostPkts != 0 {
			t.Errorf("Teardown before done booked %+v", st)
		}
	})
}
