package core

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/pathid"
	"tva/internal/telemetry"
)

// TestSizeTracksWireSize holds the engine's size bookkeeping to the
// header it leaves behind. Process adds to pkt.Size the bytes its
// stamps and demotions append instead of measuring the header twice, so
// every kind × verdict is checked here: after Process and after
// ProcessBatch, Size is OuterHdrLen + Hdr.WireSize() + payload. Each
// case runs with TrustBoundary and WantHops on and off, and the "full"
// cases start with every request list at its limit, where a stamp adds
// nothing.
func TestSizeTracksWireSize(t *testing.T) {
	const payload = 100
	now := at(1)
	// grant hands the packet a fresh capability for (1, 2).
	grant := func(t *testing.T, r *Router, h *packet.CapHdr, nkb uint16) {
		h.Caps = []uint64{grantFor(t, r, 1, 2, nkb, 10, now)}
		h.NKB, h.TSec, h.Nonce = nkb, 10, 5
	}
	// warm caches flow (src, 2) under nonce 5 with a regular packet
	// carrying size bytes of payload.
	warm := func(t *testing.T, r *Router, src packet.Addr, nkb uint16, size int) uint64 {
		cap := grantFor(t, r, src, 2, nkb, 10, now)
		if c := r.Process(regPacket(src, 2, packet.KindRegular, 5, []uint64{cap}, nkb, 10, size), 0, now); c != packet.ClassRegular {
			t.Fatalf("warm-up packet classified %v", c)
		}
		return cap
	}
	cases := []struct {
		name    string
		kind    packet.Kind
		full    bool
		entries int // flow cache size; 0 means 64
		prep    func(t *testing.T, r *Router, h *packet.CapHdr)
		reason  telemetry.DropReason // DropNone: forwarded, not demoted
	}{
		{name: "request", kind: packet.KindRequest},
		{name: "request full", kind: packet.KindRequest, full: true},
		{name: "renewal miss", kind: packet.KindRenewal,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) { grant(t, r, h, 32) }},
		{name: "renewal full", kind: packet.KindRenewal, full: true,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) { grant(t, r, h, 32) }},
		{name: "renewal replaces entry", kind: packet.KindRenewal,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) {
				warm(t, r, 1, 32, payload)
				grant(t, r, h, 32)
				h.Nonce = 6
			}},
		{name: "renewal invalid", kind: packet.KindRenewal, reason: telemetry.DropCapInvalid,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) {
				grant(t, r, h, 32)
				h.Caps[0] ^= 4
			}},
		{name: "renewal invalid full", kind: packet.KindRenewal, full: true, reason: telemetry.DropCapInvalid,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) {
				grant(t, r, h, 32)
				h.Caps[0] ^= 4
			}},
		{name: "nonce-only hit", kind: packet.KindNonceOnly,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) {
				warm(t, r, 1, 32, payload)
				h.Nonce = 5
			}},
		{name: "nonce-only miss", kind: packet.KindNonceOnly, reason: telemetry.DropFlowCachePressure,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) { h.Nonce = 5 }},
		{name: "regular hit", kind: packet.KindRegular,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) {
				h.Caps = []uint64{warm(t, r, 1, 32, payload)}
				h.NKB, h.TSec, h.Nonce = 32, 10, 5
			}},
		{name: "regular miss", kind: packet.KindRegular,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) { grant(t, r, h, 32) }},
		{name: "regular cap-invalid", kind: packet.KindRegular, reason: telemetry.DropCapInvalid,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) {
				grant(t, r, h, 32)
				h.Caps[0] ^= 4
			}},
		{name: "regular cap-expired", kind: packet.KindRegular, reason: telemetry.DropCapExpired,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) {
				// N = 1 KB; the warm-up packet leaves too little for
				// this one.
				h.Caps = []uint64{warm(t, r, 1, 1, 900)}
				h.NKB, h.TSec, h.Nonce = 1, 10, 5
			}},
		{name: "regular flowcache-pressure", kind: packet.KindRegular, entries: 1, reason: telemetry.DropFlowCachePressure,
			prep: func(t *testing.T, r *Router, h *packet.CapHdr) {
				warm(t, r, 3, 32, payload)
				grant(t, r, h, 32)
			}},
	}
	for _, tc := range cases {
		for _, boundary := range []bool{false, true} {
			for _, hops := range []bool{false, true} {
				for _, batch := range []bool{false, true} {
					entries := tc.entries
					if entries == 0 {
						entries = 64
					}
					r := NewRouter(RouterConfig{ID: 9, CacheEntries: entries, TrustBoundary: boundary, Tagger: pathid.NewSeeded(1)})
					h := &packet.CapHdr{Kind: tc.kind, Proto: packet.ProtoRaw}
					h.Request.WantHops = hops
					if tc.full {
						h.Request.PreCaps = make([]uint64, packet.MaxCaps)
						h.Request.PathIDs = make([]packet.PathID, 255)
						h.Request.HopWaits = make([]packet.HopStamp, 255)
					}
					if tc.prep != nil {
						tc.prep(t, r, h)
					}
					pkt := &packet.Packet{Src: 1, Dst: 2, TTL: 64, Proto: packet.ProtoRaw,
						Hdr: h, Size: packet.OuterHdrLen + h.WireSize() + payload}
					before := pkt.Size
					if batch {
						b := packet.NewBatch(1)
						b.Append(pkt)
						r.ProcessBatch(b, 3, now)
					} else {
						r.Process(pkt, 3, now)
					}

					name := tc.name
					if boundary {
						name += " boundary"
					}
					if hops {
						name += " hops"
					}
					if batch {
						name += " batch"
					}
					if got := telemetry.DropReason(h.DemoteReason); h.Demoted != (tc.reason != telemetry.DropNone) || got != tc.reason {
						t.Fatalf("%s: demoted %v, reason %v; want reason %v", name, h.Demoted, got, tc.reason)
					}
					if want := packet.OuterHdrLen + h.WireSize() + payload; pkt.Size != want {
						t.Errorf("%s: Size %d, want %d (outer + WireSize + payload)", name, pkt.Size, want)
					}
					if tc.full && !h.Demoted && pkt.Size != before {
						t.Errorf("%s: full lists grew the packet from %d to %d bytes", name, before, pkt.Size)
					}
				}
			}
		}
	}
}
