package sched

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

func reqPkt(path packet.PathID, size int) *packet.Packet {
	h := &packet.CapHdr{Kind: packet.KindRequest}
	if path != 0 {
		h.Request.PathIDs = []packet.PathID{path}
	}
	return &packet.Packet{Size: size, Class: packet.ClassRequest, Hdr: h}
}

func regPkt(dst packet.Addr, size int) *packet.Packet {
	return &packet.Packet{Dst: dst, Size: size, Class: packet.ClassRegular,
		Hdr: &packet.CapHdr{Kind: packet.KindNonceOnly}}
}

func legPkt(size int) *packet.Packet {
	return &packet.Packet{Size: size, Class: packet.ClassLegacy}
}

// enqueue offers pkt as a one-packet burst, the way the simulator's
// interfaces do, and reports whether it was admitted.
func enqueue(s Scheduler, pkt *packet.Packet, now tvatime.Time) bool {
	b := packet.NewBatch(1)
	b.Append(pkt)
	return s.EnqueueBatch(b, now, func(*packet.Packet) {}) == 1
}

// dequeue takes the next packet through a one-slot DequeueBatch; with
// nothing to send it returns nil and the retry time.
func dequeue(s Scheduler, now tvatime.Time) (*packet.Packet, tvatime.Time) {
	var one [1]*packet.Packet
	_, retry := s.DequeueBatch(one[:], now)
	return one[0], retry
}

func TestTVAClassPriority(t *testing.T) {
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, RequestFraction: 0.05})
	now := tvatime.Time(0)
	enqueue(s, legPkt(1000), now)
	enqueue(s, regPkt(1, 1000), now)
	enqueue(s, reqPkt(7, 100), now)

	p, _ := dequeue(s, now)
	if p == nil || p.Class != packet.ClassRequest {
		t.Fatalf("first dequeue = %v, want request", p)
	}
	p, _ = dequeue(s, now)
	if p == nil || p.Class != packet.ClassRegular {
		t.Fatalf("second dequeue = %v, want regular", p)
	}
	p, _ = dequeue(s, now)
	if p == nil || p.Class != packet.ClassLegacy {
		t.Fatalf("third dequeue = %v, want legacy", p)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestTVARequestRateLimit(t *testing.T) {
	// 1% of 10 Mb/s = 100 kb/s = 12.5 KB/s for requests. With no other
	// traffic, a backlog of requests must drain at about that rate.
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, RequestFraction: 0.01,
		RequestQueueBytes: 1 << 20})
	now := tvatime.Time(0)
	for i := 0; i < 1000; i++ {
		if !enqueue(s, reqPkt(1, 125), now) {
			t.Fatal("enqueue failed")
		}
	}
	served := 0
	end := now.Add(10 * tvatime.Second)
	for now < end {
		p, retry := dequeue(s, now)
		if p != nil {
			served += p.Size
			continue
		}
		if retry == 0 {
			break
		}
		now = retry
	}
	// Expect ≈ 125 KB served over 10s (+ burst allowance).
	if served < 100_000 || served > 160_000 {
		t.Errorf("request bytes served in 10s = %d, want ≈125000", served)
	}
}

// TestTVARequestRateSaturated keeps the request class backlogged for
// ten seconds, refilling it after every dequeue: §3.2's channel must
// pass its rate (1% of 10 Mb/s, 12.5 KB/s) times the duration plus the
// bucket's depth of three MTUs, and not a packet more.
func TestTVARequestRateSaturated(t *testing.T) {
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, RequestFraction: 0.01})
	const size = 125
	now := tvatime.Time(0)
	for i := 0; i < 8; i++ {
		enqueue(s, reqPkt(1, size), now)
	}
	served := 0
	end := now.Add(10 * tvatime.Second)
	for now < end {
		p, retry := dequeue(s, now)
		if p == nil {
			if retry <= now {
				t.Fatalf("backlogged request class blocked at %v with retry %v", now, retry)
			}
			now = retry
			continue
		}
		served += p.Size
		enqueue(s, reqPkt(1, size), now)
	}
	if want := 12_500*10 + 3*1500; served > want || served <= want-2*size {
		t.Errorf("request bytes served in 10s = %d, want at most %d and within a packet of it", served, want)
	}
}

func TestTVARequestsDoNotStarveRegular(t *testing.T) {
	// With request backlog but no tokens, regular traffic must flow.
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, RequestFraction: 0.01})
	now := tvatime.Time(0)
	// Drain the initial token burst.
	for i := 0; i < 100; i++ {
		enqueue(s, reqPkt(1, 1000), now)
	}
	for {
		p, _ := dequeue(s, now)
		if p == nil {
			break
		}
		if p.Class != packet.ClassRequest {
			t.Fatal("unexpected class while draining burst")
		}
	}
	enqueue(s, regPkt(2, 1000), now)
	p, _ := dequeue(s, now)
	if p == nil || p.Class != packet.ClassRegular {
		t.Fatalf("regular packet blocked behind rate-limited requests: %v", p)
	}
}

func TestTVADequeueRetryTime(t *testing.T) {
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, RequestFraction: 0.01})
	now := tvatime.Time(0)
	for i := 0; i < 100; i++ {
		enqueue(s, reqPkt(1, 1000), now)
	}
	var retry tvatime.Time
	for {
		p, r := dequeue(s, now)
		if p == nil {
			retry = r
			break
		}
	}
	if retry <= now {
		t.Fatalf("expected a retry time for rate-limited backlog, got %v", retry)
	}
	// At the retry time the packet must be released.
	p, _ := dequeue(s, retry)
	if p == nil {
		t.Error("packet not released at the promised retry time")
	}
}

func TestTVAPerDestinationFairness(t *testing.T) {
	// Two destinations, one with a huge backlog: service alternates so
	// each destination gets about half the bytes (Fig. 2 / §3.9).
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, RegularQueueBytes: 1 << 20})
	now := tvatime.Time(0)
	for i := 0; i < 500; i++ {
		enqueue(s, regPkt(1, 1000), now)
		enqueue(s, regPkt(2, 1000), now)
	}
	bytes := map[packet.Addr]int{}
	for i := 0; i < 400; i++ {
		p, _ := dequeue(s, now)
		bytes[p.Dst] += p.Size
	}
	if bytes[1] < 150_000 || bytes[2] < 150_000 {
		t.Errorf("per-destination shares unfair: %v", bytes)
	}
}

func TestTVARequestPathIsolation(t *testing.T) {
	// Queue caps apply per path identifier: one flooding path cannot
	// push another path's requests out.
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, RequestQueueBytes: 2000})
	now := tvatime.Time(0)
	for i := 0; i < 100; i++ {
		enqueue(s, reqPkt(1, 1000), now) // flooding path: mostly dropped
	}
	if !enqueue(s, reqPkt(2, 100), now) {
		t.Error("victim path's request dropped because of another path's flood")
	}
}

func TestSIFFPriority(t *testing.T) {
	s := NewSIFF(10, 10)
	now := tvatime.Time(0)
	enqueue(s, legPkt(100), now)
	enqueue(s, regPkt(1, 100), now)
	p, _ := dequeue(s, now)
	if p.Class != packet.ClassRegular {
		t.Error("SIFF must serve authorized traffic first")
	}
	p, _ = dequeue(s, now)
	if p.Class != packet.ClassLegacy {
		t.Error("legacy packet lost")
	}
}

func TestSIFFLowClassSharedByRequests(t *testing.T) {
	// Requests and legacy share the low queue: filling it with legacy
	// drops requests (the SIFF weakness TVA fixes).
	s := NewSIFF(10, 2)
	now := tvatime.Time(0)
	enqueue(s, legPkt(100), now)
	enqueue(s, legPkt(100), now)
	req := reqPkt(1, 50)
	req.Class = packet.ClassLegacy // SIFF routers classify requests as legacy
	if enqueue(s, req, now) {
		t.Error("request admitted past the shared low-queue cap")
	}
}

func TestDropTail(t *testing.T) {
	s := NewDropTailPkts(2)
	now := tvatime.Time(0)
	if !enqueue(s, legPkt(1), now) || !enqueue(s, legPkt(1), now) {
		t.Fatal("enqueue failed")
	}
	if enqueue(s, legPkt(1), now) {
		t.Error("drop-tail over capacity")
	}
	if s.Drops.Total() != 1 {
		t.Errorf("Drops.Total() = %d, want 1", s.Drops.Total())
	}
	p, retry := dequeue(s, now)
	if p == nil || retry != 0 {
		t.Error("dequeue failed")
	}
}

func TestTVADropCount(t *testing.T) {
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, LegacyQueueBytes: 1000})
	now := tvatime.Time(0)
	enqueue(s, legPkt(800), now)
	enqueue(s, legPkt(800), now)
	if s.Drops.Total() != 1 {
		t.Errorf("Drops.Total() = %d, want 1", s.Drops.Total())
	}
}
