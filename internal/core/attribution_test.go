package core

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/telemetry"
)

// TestDemotionAttribution drives every demotion site in Fig. 6's
// regular-packet arm and checks the failed check is named in the
// Demotions counters and stamped into the header (DemoteReason,
// DemoteRouter) so the reverse channel can carry it back.
func TestDemotionAttribution(t *testing.T) {
	const routerID = 7
	cases := []struct {
		name   string
		router func() *Router
		// drive returns the packet expected to be demoted.
		drive  func(t *testing.T, r *Router) *packet.Packet
		reason telemetry.DropReason
	}{
		{
			name:   "forged capability",
			router: func() *Router { return attrRouter(routerID, 64, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				cap := grantFor(t, r, 1, 2, 32, 10, at(1))
				pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap ^ 4}, 32, 10, 100)
				r.Process(pkt, 0, at(1))
				return pkt
			},
			reason: telemetry.DropCapInvalid,
		},
		{
			name:   "malformed capability pointer",
			router: func() *Router { return attrRouter(routerID, 64, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				// Regular packet with an empty capability list: the
				// pointer names a slot that does not exist.
				pkt := regPacket(1, 2, packet.KindRegular, 5, nil, 32, 10, 100)
				r.Process(pkt, 0, at(1))
				return pkt
			},
			reason: telemetry.DropCapInvalid,
		},
		{
			name:   "authorization below (N/T)min",
			router: func() *Router { return attrRouter(routerID, 64, 4, 10) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				cap := grantFor(t, r, 1, 2, 1, 60, at(1)) // ~17 B/s < 0.4 KB/s
				pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 1, 60, 50)
				r.Process(pkt, 0, at(1))
				return pkt
			},
			reason: telemetry.DropCapInvalid,
		},
		{
			name:   "byte budget exhausted",
			router: func() *Router { return attrRouter(routerID, 64, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				cap := grantFor(t, r, 1, 2, 1, 10, at(1)) // N = 1 KB
				first := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 1, 10, 500)
				if r.Process(first, 0, at(1)) != packet.ClassRegular {
					t.Fatal("setup packet rejected")
				}
				over := regPacket(1, 2, packet.KindNonceOnly, 5, nil, 0, 0, 600)
				r.Process(over, 0, at(1))
				return over
			},
			reason: telemetry.DropCapExpired,
		},
		{
			// Create would refuse the packet too, for pressure: the
			// router's own check must come first and name the budget.
			name:   "first packet over the byte budget",
			router: func() *Router { return attrRouter(routerID, 64, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				cap := grantFor(t, r, 1, 2, 1, 10, at(1)) // N = 1 KB
				pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 1, 10, 1100)
				r.Process(pkt, 0, at(1))
				return pkt
			},
			reason: telemetry.DropCapExpired,
		},
		{
			name:   "authorization expired",
			router: func() *Router { return attrRouter(routerID, 64, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				cap := grantFor(t, r, 1, 2, 32, 2, at(1)) // T = 2s
				first := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 32, 2, 100)
				if r.Process(first, 0, at(1)) != packet.ClassRegular {
					t.Fatal("setup packet rejected")
				}
				late := regPacket(1, 2, packet.KindNonceOnly, 5, nil, 0, 0, 100)
				r.Process(late, 0, at(4))
				return late
			},
			reason: telemetry.DropCapExpired,
		},
		{
			// No cache entry, so the capability itself is checked: it
			// authenticates, so its age is what refuses it.
			name:   "authenticated capability older than T",
			router: func() *Router { return attrRouter(routerID, 64, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				cap := grantFor(t, r, 1, 2, 32, 2, at(1)) // T = 2s
				pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 32, 2, 100)
				r.Process(pkt, 0, at(4))
				return pkt
			},
			reason: telemetry.DropCapExpired,
		},
		{
			name:   "forged capability with a stale timestamp",
			router: func() *Router { return attrRouter(routerID, 64, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				cap := grantFor(t, r, 1, 2, 32, 2, at(1))
				pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap ^ 4}, 32, 2, 100)
				r.Process(pkt, 0, at(4))
				return pkt
			},
			reason: telemetry.DropCapInvalid,
		},
		{
			name:   "flow cache cannot admit",
			router: func() *Router { return attrRouter(routerID, 1, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				capA := grantFor(t, r, 1, 2, 32, 10, at(1))
				a := regPacket(1, 2, packet.KindRegular, 5, []uint64{capA}, 32, 10, 100)
				if r.Process(a, 0, at(1)) != packet.ClassRegular {
					t.Fatal("first flow rejected")
				}
				capB := grantFor(t, r, 3, 2, 32, 10, at(1))
				b := regPacket(3, 2, packet.KindRegular, 6, []uint64{capB}, 32, 10, 100)
				r.Process(b, 0, at(1))
				return b
			},
			reason: telemetry.DropFlowCachePressure,
		},
		{
			name:   "nonce-only with no cache entry",
			router: func() *Router { return attrRouter(routerID, 64, 0, 0) },
			drive: func(t *testing.T, r *Router) *packet.Packet {
				pkt := regPacket(1, 2, packet.KindNonceOnly, 5, nil, 0, 0, 100)
				r.Process(pkt, 0, at(1))
				return pkt
			},
			reason: telemetry.DropFlowCachePressure,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.router()
			pkt := tc.drive(t, r)
			if pkt.Class != packet.ClassLegacy || !pkt.Hdr.Demoted {
				t.Fatalf("packet not demoted: class=%v demoted=%v", pkt.Class, pkt.Hdr.Demoted)
			}
			if got := telemetry.DropReason(pkt.Hdr.DemoteReason); got != tc.reason {
				t.Errorf("DemoteReason = %v, want %v", got, tc.reason)
			}
			if pkt.Hdr.DemoteRouter != routerID {
				t.Errorf("DemoteRouter = %d, want %d", pkt.Hdr.DemoteRouter, routerID)
			}
			if got := r.Demotions.Get(tc.reason); got != 1 {
				t.Errorf("Demotions.Get(%v) = %d, want 1", tc.reason, got)
			}
			if r.Demotions.Total() != uint64(r.Stats.Demoted) {
				t.Errorf("Demotions.Total() = %d, Stats.Demoted = %d; must agree",
					r.Demotions.Total(), r.Stats.Demoted)
			}
		})
	}
}

func attrRouter(id uint8, cacheEntries int, minNKB uint16, minTSec uint8) *Router {
	return NewRouter(RouterConfig{
		ID:           id,
		CacheEntries: cacheEntries,
		MinNKB:       minNKB,
		MinTSec:      minTSec,
	})
}
