package sched

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

func demotedPkt(size int) *packet.Packet {
	return &packet.Packet{Size: size, Class: packet.ClassLegacy,
		Hdr: &packet.CapHdr{Kind: packet.KindNonceOnly, Demoted: true}}
}

// smallTVA has queue caps that two 1000-byte packets fill, so every
// drop site is reachable with a handful of enqueues. Quantum 64 keeps
// the request-channel token bucket burst (3 quanta = 192 bytes) below
// one packet, so a dequeued request parks as a holdover forever.
func smallTVA(maxRegularQueues int) *TVA {
	return NewTVA(TVAConfig{
		LinkBps:           1_000_000,
		Quantum:           64,
		RequestQueueBytes: 2000,
		RegularQueueBytes: 2000,
		LegacyQueueBytes:  2000,
		MaxRegularQueues:  maxRegularQueues,
	})
}

// TestTVADropAttribution drives every TVA enqueue drop site and checks
// the drop lands on its reason, is reported by LastDropReason, and is
// covered by the total (DropReasons() is Drops, totalling 1).
func TestTVADropAttribution(t *testing.T) {
	now := tvatime.Time(0)
	cases := []struct {
		name   string
		drive  func(t *testing.T, s *TVA) // must produce exactly one drop
		s      func() *TVA
		reason telemetry.DropReason
	}{
		{
			name: "request queue full",
			s:    func() *TVA { return smallTVA(0) },
			drive: func(t *testing.T, s *TVA) {
				mustEnqueue(t, s, reqPkt(1, 1000), now)
				mustEnqueue(t, s, reqPkt(1, 1000), now)
				mustDrop(t, s, reqPkt(1, 1000), now)
			},
			reason: telemetry.DropRequestQueueFull,
		},
		{
			name: "request rate limited (holdover parked)",
			s:    func() *TVA { return smallTVA(0) },
			drive: func(t *testing.T, s *TVA) {
				mustEnqueue(t, s, reqPkt(1, 1000), now)
				// The 1000-byte request exceeds the bucket burst, so
				// a dequeue parks it as a holdover and asks for a retry.
				if pkt, retry := dequeue(s, now); pkt != nil || retry == 0 {
					t.Fatalf("dequeue = (%v, %v), want parked holdover", pkt, retry)
				}
				mustEnqueue(t, s, reqPkt(1, 1000), now)
				mustEnqueue(t, s, reqPkt(1, 1000), now)
				mustDrop(t, s, reqPkt(1, 1000), now)
			},
			reason: telemetry.DropRequestRateLimited,
		},
		{
			name: "regular per-destination cap",
			s:    func() *TVA { return smallTVA(0) },
			drive: func(t *testing.T, s *TVA) {
				mustEnqueue(t, s, regPkt(7, 1000), now)
				mustEnqueue(t, s, regPkt(7, 1000), now)
				mustDrop(t, s, regPkt(7, 1000), now)
			},
			reason: telemetry.DropRegularQueueFull,
		},
		{
			name: "regular queue-count bound (flow-cache pressure)",
			s:    func() *TVA { return smallTVA(1) },
			drive: func(t *testing.T, s *TVA) {
				mustEnqueue(t, s, regPkt(7, 1000), now)
				mustDrop(t, s, regPkt(8, 1000), now)
			},
			reason: telemetry.DropFlowCachePressure,
		},
		{
			name: "legacy queue full",
			s:    func() *TVA { return smallTVA(0) },
			drive: func(t *testing.T, s *TVA) {
				mustEnqueue(t, s, legPkt(1000), now)
				mustEnqueue(t, s, legPkt(1000), now)
				mustDrop(t, s, legPkt(1000), now)
			},
			reason: telemetry.DropLegacyQueueFull,
		},
		{
			name: "demoted packet dropped in legacy queue",
			s:    func() *TVA { return smallTVA(0) },
			drive: func(t *testing.T, s *TVA) {
				mustEnqueue(t, s, legPkt(1000), now)
				mustEnqueue(t, s, legPkt(1000), now)
				mustDrop(t, s, demotedPkt(1000), now)
			},
			reason: telemetry.DropDemoted,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s()
			tc.drive(t, s)
			if got := s.Drops.Get(tc.reason); got != 1 {
				t.Errorf("Drops.Get(%v) = %d, want 1 (all: %v)", tc.reason, got, dropMap(&s.Drops))
			}
			if got := s.LastDropReason(); got != tc.reason {
				t.Errorf("LastDropReason() = %v, want %v", got, tc.reason)
			}
			if s.DropReasons() != &s.Drops || s.Drops.Total() != 1 {
				t.Errorf("DropReasons().Total() = %d, Drops.Total() = %d, want both 1",
					s.DropReasons().Total(), s.Drops.Total())
			}
		})
	}
}

// TestTVARefusedRegularLeavesNoQueue: a regular packet over the
// per-destination byte cap, sent to a new destination, must not leave
// an empty queue that counts against the queue-count bound — or after
// MaxRegularQueues such packets every new destination would be refused
// as flow-cache pressure.
func TestTVARefusedRegularLeavesNoQueue(t *testing.T) {
	now := tvatime.Time(0)
	s := NewTVA(TVAConfig{LinkBps: 10_000_000, MaxRegularQueues: 4})
	for dst := packet.Addr(1); dst <= 4; dst++ {
		mustDrop(t, s, regPkt(dst, 40_000), now)
	}
	if got := s.Drops.Get(telemetry.DropRegularQueueFull); got != 4 {
		t.Fatalf("regular-queue-full drops = %d, want 4 (all: %v)", got, dropMap(&s.Drops))
	}
	if s.RegularQueues() != 0 {
		t.Fatalf("RegularQueues() = %d after refused packets, want 0", s.RegularQueues())
	}
	mustEnqueue(t, s, regPkt(99, 100), now)
}

// TestQueueDropReasonClassification covers the shared FIFO
// classification used by DropTail and SIFF: the reason is derived from
// what the packet was, with demotion reported separately (§3.8).
func TestQueueDropReasonClassification(t *testing.T) {
	now := tvatime.Time(0)
	cases := []struct {
		name   string
		pkt    *packet.Packet
		reason telemetry.DropReason
	}{
		{"demoted", demotedPkt(100), telemetry.DropDemoted},
		{"request class", reqPkt(1, 100), telemetry.DropRequestQueueFull},
		{"request kind without class", &packet.Packet{Size: 100,
			Hdr: &packet.CapHdr{Kind: packet.KindRequest}}, telemetry.DropRequestQueueFull},
		{"regular", regPkt(7, 100), telemetry.DropRegularQueueFull},
		{"legacy", legPkt(100), telemetry.DropLegacyQueueFull},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewDropTailPkts(1)
			mustEnqueue(t, s, legPkt(100), now)
			if enqueue(s, tc.pkt, now) {
				t.Fatal("enqueue into a full FIFO succeeded")
			}
			if got := s.Drops.Get(tc.reason); got != 1 {
				t.Errorf("Drops.Get(%v) = %d, want 1 (all: %v)", tc.reason, got, dropMap(&s.Drops))
			}
			if got := s.LastDropReason(); got != tc.reason {
				t.Errorf("LastDropReason() = %v, want %v", got, tc.reason)
			}
		})
	}
}

// TestSIFFDropAttribution checks that SIFF's two FIFOs attribute drops
// per class as well.
func TestSIFFDropAttribution(t *testing.T) {
	now := tvatime.Time(0)
	s := NewSIFF(1, 1)
	mustEnqueue(t, s, regPkt(7, 100), now)
	mustEnqueue(t, s, legPkt(100), now)
	if enqueue(s, regPkt(7, 100), now) {
		t.Fatal("high-priority FIFO should be full")
	}
	if enqueue(s, demotedPkt(100), now) {
		t.Fatal("low-priority FIFO should be full")
	}
	if got := s.Drops.Get(telemetry.DropRegularQueueFull); got != 1 {
		t.Errorf("regular drops = %d, want 1", got)
	}
	if got := s.Drops.Get(telemetry.DropDemoted); got != 1 {
		t.Errorf("demoted drops = %d, want 1", got)
	}
	if s.DropReasons().Total() != 2 {
		t.Errorf("DropReasons().Total() = %d, want 2", s.DropReasons().Total())
	}
}

func mustEnqueue(t *testing.T, s Scheduler, pkt *packet.Packet, now tvatime.Time) {
	t.Helper()
	if !enqueue(s, pkt, now) {
		t.Fatal("setup enqueue dropped unexpectedly")
	}
}

func mustDrop(t *testing.T, s Scheduler, pkt *packet.Packet, now tvatime.Time) {
	t.Helper()
	if enqueue(s, pkt, now) {
		t.Fatal("enqueue succeeded, want drop")
	}
}

func dropMap(c *telemetry.DropCounters) map[string]uint64 {
	m := make(map[string]uint64)
	for i := 0; i < telemetry.NumDropReasons; i++ {
		if n := c.Get(telemetry.DropReason(i)); n > 0 {
			m[telemetry.DropReason(i).String()] = n
		}
	}
	return m
}
