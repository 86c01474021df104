package sched

import (
	"math/rand"
	"testing"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

// mkWorkload builds a deterministic mixed-class burst: request trains
// sharing path-id tags, regular trains per destination, legacy and
// demoted packets, with sizes chosen to overflow the small queues.
func mkWorkload(rng *rand.Rand, n int) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		p := &packet.Packet{Src: packet.Addr(i), Size: 200 + rng.Intn(1300)}
		switch rng.Intn(4) {
		case 0:
			p.Class = packet.ClassRequest
			p.Hdr = &packet.CapHdr{Kind: packet.KindRequest}
			p.Hdr.Request.PathIDs = []packet.PathID{packet.PathID(rng.Intn(3))}
			p.Dst = packet.Addr(100 + rng.Intn(2))
		case 1:
			p.Class = packet.ClassRegular
			p.Dst = packet.Addr(200 + rng.Intn(3))
		case 2:
			p.Class = packet.ClassLegacy
			p.Dst = packet.Addr(300)
		default:
			p.Class = packet.ClassLegacy
			p.Hdr = &packet.CapHdr{Kind: packet.KindRegular, Demoted: true}
			p.Dst = packet.Addr(301)
		}
		pkts[i] = p
	}
	return pkts
}

func clonePkts(pkts []*packet.Packet) []*packet.Packet {
	out := make([]*packet.Packet, len(pkts))
	for i, p := range pkts {
		c := *p
		if p.Hdr != nil {
			h := *p.Hdr
			c.Hdr = &h
		}
		out[i] = &c
	}
	return out
}

func samePacket(a, b *packet.Packet) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Size == b.Size && a.Class == b.Class
}

// testWidthInvariance feeds one seeded workload to two identically
// configured schedulers: side A one packet at a time in both
// directions, as the simulator's interfaces drive them; side B whole
// bursts in and random dst widths out, as the overlay's ports do. The
// clock advances between rounds so the request rate limiter both
// blocks and refills, and bursts outpace drains so every queue bound
// is hit. Admission, drop order and reasons, service order
// and the retry time must match.
func testWidthInvariance(t *testing.T, name string, mk func() Scheduler) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	a, b := mk(), mk()
	now := tvatime.FromSeconds(1)
	var aDrops, bDrops []*packet.Packet
	aDrop := func(p *packet.Packet) { aDrops = append(aDrops, p) }
	bDrop := func(p *packet.Packet) { bDrops = append(bDrops, p) }
	one := packet.NewBatch(1)

	for round := 0; round < 200; round++ {
		step := tvatime.Duration(rng.Intn(3)) * tvatime.Millisecond
		if rng.Intn(8) == 0 {
			step = 100 * tvatime.Millisecond // refill the request bucket
		}
		now = now.Add(step)
		work := mkWorkload(rng, 1+rng.Intn(24))
		mine := clonePkts(work)

		aDrops, bDrops = aDrops[:0], bDrops[:0]
		aAcc := 0
		for _, p := range work {
			one.Append(p)
			aAcc += a.EnqueueBatch(one, now, aDrop)
		}
		burst := packet.NewBatch(len(mine))
		for _, p := range mine {
			burst.Append(p)
		}
		bAcc := b.EnqueueBatch(burst, now, bDrop)
		if burst.Len() != 0 || one.Len() != 0 {
			t.Fatalf("%s round %d: batch not cleared after EnqueueBatch", name, round)
		}
		if aAcc != bAcc || len(aDrops) != len(bDrops) {
			t.Fatalf("%s round %d: accepted %d/%d drops %d/%d", name, round, aAcc, bAcc, len(aDrops), len(bDrops))
		}
		for i := range aDrops {
			if !samePacket(aDrops[i], bDrops[i]) {
				t.Fatalf("%s round %d drop %d: %+v vs %+v", name, round, i, aDrops[i], bDrops[i])
			}
		}
		if a.LastDropReason() != b.LastDropReason() {
			t.Fatalf("%s round %d: last drop reason %v vs %v", name, round, a.LastDropReason(), b.LastDropReason())
		}

		dst := make([]*packet.Packet, rng.Intn(10))
		got, bRetry := b.DequeueBatch(dst, now)
		for i := range dst {
			var slot [1]*packet.Packet
			n, aRetry := a.DequeueBatch(slot[:], now)
			if (i < got) != (n == 1) {
				t.Fatalf("%s round %d pos %d: width-%d call wrote %d, one-slot call wrote %d", name, round, i, len(dst), got, n)
			}
			if n == 0 {
				if got == 0 && aRetry != bRetry {
					t.Fatalf("%s round %d: retry %v vs %v", name, round, aRetry, bRetry)
				}
				break
			}
			if !samePacket(slot[0], dst[i]) {
				t.Fatalf("%s round %d pos %d: one-slot %+v != width-%d %+v", name, round, i, slot[0], len(dst), dst[i])
			}
		}
		if a.Len() != b.Len() {
			t.Fatalf("%s round %d: Len %d vs %d", name, round, a.Len(), b.Len())
		}
	}

	if ad, bd := a.DropReasons(), b.DropReasons(); *ad != *bd {
		t.Fatalf("%s: drop attribution diverges:\n one-wide %v\n bursts   %v", name, ad, bd)
	}
}

func TestWidthInvarianceTVA(t *testing.T) {
	testWidthInvariance(t, "tva", func() Scheduler {
		return NewTVA(TVAConfig{
			LinkBps:           10_000_000,
			RequestFraction:   0.05,
			RequestQueueBytes: 4 * 1024,
			RegularQueueBytes: 8 * 1024,
			LegacyQueueBytes:  8 * 1024,
			MaxRequestQueues:  2, // force EnqDropNoQueue on the third tag
			MaxRegularQueues:  2,
		})
	})
}

func TestWidthInvarianceDropTail(t *testing.T) {
	testWidthInvariance(t, "droptail", func() Scheduler { return NewDropTail(16 * 1024) })
}

func TestWidthInvarianceSIFF(t *testing.T) {
	testWidthInvariance(t, "siff", func() Scheduler { return NewSIFF(20, 10) })
}

// TestTVADequeueBatchRetry pins the rate-limit retry contract: a burst
// of requests beyond the token allowance dequeues partially, and once
// nothing is serviceable the call returns a retry time in the future.
func TestTVADequeueBatchRetry(t *testing.T) {
	s := NewTVA(TVAConfig{LinkBps: 1_000_000, RequestFraction: 0.01, Quantum: 1500, RequestQueueBytes: 32 * 1024})
	now := tvatime.FromSeconds(0)
	b := packet.NewBatch(8)
	for i := 0; i < 8; i++ {
		p := &packet.Packet{Src: packet.Addr(i), Dst: 1, Size: 1500, Class: packet.ClassRequest,
			Hdr: &packet.CapHdr{Kind: packet.KindRequest}}
		b.Append(p)
	}
	if acc := s.EnqueueBatch(b, now, func(p *packet.Packet) { t.Fatalf("unexpected drop %+v", p) }); acc != 8 {
		t.Fatalf("accepted %d, want 8", acc)
	}
	dst := make([]*packet.Packet, 8)
	n, _ := s.DequeueBatch(dst, now)
	if n == 0 || n == 8 {
		t.Fatalf("expected partial dequeue under rate limit, got %d", n)
	}
	m, retry := s.DequeueBatch(dst, now)
	if m != 0 || retry == 0 {
		t.Fatalf("blocked burst: n=%d retry=%v, want 0 with retry", m, retry)
	}
	if retry <= now {
		t.Fatalf("retry %v not in the future", retry)
	}
}
