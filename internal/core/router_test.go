package core

import (
	"testing"

	"tva/internal/capability"
	"tva/internal/flowcache"
	"tva/internal/packet"
	"tva/internal/pathid"
	"tva/internal/tvatime"
)

func at(sec float64) tvatime.Time { return tvatime.FromSeconds(sec) }

func newTestRouter(boundary bool) *Router {
	return NewRouter(RouterConfig{
		CacheEntries:  64,
		TrustBoundary: boundary,
		Tagger:        pathid.NewSeeded(1),
	})
}

func reqPacket(src, dst packet.Addr, payload int) *packet.Packet {
	h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoRaw}
	return &packet.Packet{
		Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
		Hdr: h, Size: packet.OuterHdrLen + h.WireSize() + payload,
	}
}

func TestRequestStamping(t *testing.T) {
	r := newTestRouter(true)
	pkt := reqPacket(1, 2, 100)
	before := pkt.Size
	class := r.Process(pkt, 3, at(0))
	if class != packet.ClassRequest {
		t.Fatalf("class = %v, want request", class)
	}
	if len(pkt.Hdr.Request.PreCaps) != 1 {
		t.Fatalf("pre-capability not added: %v", pkt.Hdr.Request.PreCaps)
	}
	if len(pkt.Hdr.Request.PathIDs) != 1 {
		t.Fatalf("path id not added at trust boundary")
	}
	if want := before + 8 + 2; pkt.Size != want {
		t.Errorf("Size = %d, want %d (grew by precap+pathid)", pkt.Size, want)
	}
	if !r.Authority().ValidatePre(1, 2, pkt.Hdr.Request.PreCaps[0], at(0)) {
		t.Error("stamped pre-capability does not validate")
	}
}

func TestNonBoundaryDoesNotTag(t *testing.T) {
	r := newTestRouter(false)
	pkt := reqPacket(1, 2, 100)
	r.Process(pkt, 0, at(0))
	if len(pkt.Hdr.Request.PathIDs) != 0 {
		t.Error("non-boundary router added a path id")
	}
	if len(pkt.Hdr.Request.PreCaps) != 1 {
		t.Error("every router must add a pre-capability")
	}
}

// grantFor runs the request through the router and converts the
// pre-capability into a capability, as a destination would.
func grantFor(t *testing.T, r *Router, src, dst packet.Addr, nkb uint16, tsec uint8, now tvatime.Time) uint64 {
	t.Helper()
	req := reqPacket(src, dst, 0)
	r.Process(req, 0, now)
	if len(req.Hdr.Request.PreCaps) != 1 {
		t.Fatal("no pre-capability")
	}
	return capability.Crypto.MakeCap(req.Hdr.Request.PreCaps[0], nkb, tsec)
}

func regPacket(src, dst packet.Addr, kind packet.Kind, nonce uint64, caps []uint64, nkb uint16, tsec uint8, payload int) *packet.Packet {
	h := &packet.CapHdr{Kind: kind, Proto: packet.ProtoRaw, Nonce: nonce, NKB: nkb, TSec: tsec, Caps: caps}
	return &packet.Packet{
		Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
		Hdr: h, Size: packet.OuterHdrLen + h.WireSize() + payload,
	}
}

func TestRegularValidationAndCaching(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	cap := grantFor(t, r, 1, 2, 32, 10, now)

	first := regPacket(1, 2, packet.KindRegular, 777, []uint64{cap}, 32, 10, 500)
	if class := r.Process(first, 0, now); class != packet.ClassRegular {
		t.Fatalf("valid first packet classified %v", class)
	}
	if r.Cache().Len() != 1 {
		t.Fatal("no cache entry created")
	}

	// Subsequent nonce-only packet hits the cache.
	nonceOnly := regPacket(1, 2, packet.KindNonceOnly, 777, nil, 0, 0, 500)
	if class := r.Process(nonceOnly, 0, now.Add(10*tvatime.Millisecond)); class != packet.ClassRegular {
		t.Fatalf("nonce-only packet classified %v", class)
	}
	if r.Stats.RegularHit != 1 {
		t.Errorf("RegularHit = %d, want 1", r.Stats.RegularHit)
	}

	// Wrong nonce without capabilities: demoted.
	bad := regPacket(1, 2, packet.KindNonceOnly, 778, nil, 0, 0, 500)
	if class := r.Process(bad, 0, now.Add(20*tvatime.Millisecond)); class != packet.ClassLegacy {
		t.Fatalf("wrong-nonce packet classified %v", class)
	}
	if !bad.Hdr.Demoted {
		t.Error("wrong-nonce packet not marked demoted")
	}
}

func TestForgedCapDemoted(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	cap := grantFor(t, r, 1, 2, 32, 10, now)
	forged := regPacket(1, 2, packet.KindRegular, 1, []uint64{cap ^ 4}, 32, 10, 500)
	if class := r.Process(forged, 0, now); class != packet.ClassLegacy || !forged.Hdr.Demoted {
		t.Error("forged capability not demoted")
	}
	// Stolen capability used from another source: demoted.
	stolen := regPacket(9, 2, packet.KindRegular, 1, []uint64{cap}, 32, 10, 500)
	if class := r.Process(stolen, 0, now); class != packet.ClassLegacy {
		t.Error("capability transferred to another sender was accepted")
	}
}

func TestByteLimitDemotes(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	cap := grantFor(t, r, 1, 2, 1, 10, now) // N = 1 KB
	first := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 1, 10, 500)
	if r.Process(first, 0, now) != packet.ClassRegular {
		t.Fatal("first packet rejected")
	}
	second := regPacket(1, 2, packet.KindNonceOnly, 5, nil, 0, 0, 600)
	if r.Process(second, 0, now) != packet.ClassLegacy {
		t.Error("packet beyond N not demoted")
	}
	if r.Stats.Demoted == 0 {
		t.Error("demotion not counted")
	}
}

func TestExpiryDemotes(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	cap := grantFor(t, r, 1, 2, 32, 2, now) // T = 2s
	first := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 32, 2, 100)
	if r.Process(first, 0, now) != packet.ClassRegular {
		t.Fatal("first packet rejected")
	}
	late := regPacket(1, 2, packet.KindNonceOnly, 5, nil, 0, 0, 100)
	if r.Process(late, 0, now.Add(3*tvatime.Second)) != packet.ClassLegacy {
		t.Error("packet after T not demoted")
	}
}

func TestRenewalReplacesEntryAndMintsPreCap(t *testing.T) {
	r := newTestRouter(true)
	now := at(1)
	cap := grantFor(t, r, 1, 2, 1, 10, now)
	first := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 1, 10, 400)
	if r.Process(first, 0, now) != packet.ClassRegular {
		t.Fatal("setup failed")
	}

	// Renewal carrying the old (still valid) capability but a new
	// nonce; the router validates, replaces the entry, and mints a
	// fresh pre-capability into the packet.
	renewal := regPacket(1, 2, packet.KindRenewal, 6, []uint64{cap}, 1, 10, 100)
	if class := r.Process(renewal, 0, now.Add(tvatime.Second)); class != packet.ClassRegular {
		t.Fatalf("renewal classified %v", class)
	}
	if len(renewal.Hdr.Request.PreCaps) != 1 {
		t.Error("renewal did not receive a fresh pre-capability")
	}
	if len(renewal.Hdr.Request.PathIDs) != 1 {
		t.Error("renewal not tagged at trust boundary")
	}
	if r.Stats.Replaced != 1 {
		t.Errorf("Replaced = %d, want 1", r.Stats.Replaced)
	}
	// The new nonce now hits the cache.
	pkt := regPacket(1, 2, packet.KindNonceOnly, 6, nil, 0, 0, 100)
	if r.Process(pkt, 0, now.Add(tvatime.Second)) != packet.ClassRegular {
		t.Error("renewed nonce rejected")
	}
}

func TestDemotedStaysDemoted(t *testing.T) {
	r1 := newTestRouter(false)
	r2 := newTestRouter(false)
	now := at(1)
	// A packet demoted at r1 must not be re-promoted at r2 even if it
	// would otherwise validate there.
	req := reqPacket(1, 2, 0)
	r1.Process(req, 0, now)
	r2.Process(req, 0, now)
	cap2 := capability.Crypto.MakeCap(req.Hdr.Request.PreCaps[1], 32, 10)
	pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{123, cap2}, 32, 10, 100)
	if r1.Process(pkt, 0, now) != packet.ClassLegacy {
		t.Fatal("bogus first-hop capability accepted")
	}
	if r2.Process(pkt, 0, now) != packet.ClassLegacy {
		t.Error("demoted packet re-promoted downstream")
	}
	if r2.Stats.Legacy == 0 {
		t.Error("demoted packet not counted as legacy downstream")
	}
}

func TestCapabilityPointerWalksTwoRouters(t *testing.T) {
	r1 := newTestRouter(false)
	r2 := newTestRouter(false)
	now := at(1)
	req := reqPacket(1, 2, 0)
	r1.Process(req, 0, now)
	r2.Process(req, 0, now)
	caps := make([]uint64, 2)
	for i, pre := range req.Hdr.Request.PreCaps {
		caps[i] = capability.Crypto.MakeCap(pre, 32, 10)
	}
	pkt := regPacket(1, 2, packet.KindRegular, 5, caps, 32, 10, 100)
	if r1.Process(pkt, 0, now) != packet.ClassRegular {
		t.Fatal("hop 1 rejected")
	}
	if pkt.Hdr.Ptr != 1 {
		t.Fatalf("Ptr = %d after hop 1, want 1", pkt.Hdr.Ptr)
	}
	if r2.Process(pkt, 0, now) != packet.ClassRegular {
		t.Fatal("hop 2 rejected")
	}
	if pkt.Hdr.Ptr != 2 {
		t.Errorf("Ptr = %d after hop 2, want 2", pkt.Hdr.Ptr)
	}
	// A third router has no slot: demote.
	r3 := newTestRouter(false)
	if r3.Process(pkt, 0, now) != packet.ClassLegacy {
		t.Error("packet with exhausted capability list not demoted")
	}
}

func TestLegacyPassesAsLegacy(t *testing.T) {
	r := newTestRouter(false)
	pkt := &packet.Packet{Src: 1, Dst: 2, Proto: packet.ProtoRaw, Size: 100}
	if r.Process(pkt, 0, at(0)) != packet.ClassLegacy {
		t.Error("legacy packet misclassified")
	}
	if r.Stats.Legacy != 1 {
		t.Error("legacy not counted")
	}
}

func TestMinRateEnforced(t *testing.T) {
	r := NewRouter(RouterConfig{
		CacheEntries: 16, MinNKB: 4, MinTSec: 10, // (N/T)min = 0.4 KB/s
	})
	now := at(1)
	// Grant with a rate below the architectural minimum: rejected so
	// attackers cannot pin state with absurdly slow authorizations.
	cap := grantFor(t, r, 1, 2, 1, 60, now) // ~17 B/s
	pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 1, 60, 50)
	if r.Process(pkt, 0, now) != packet.ClassLegacy {
		t.Error("authorization below (N/T)min accepted")
	}
}

func TestCacheBoundedUnderFloodOfFlows(t *testing.T) {
	r := NewRouter(RouterConfig{CacheEntries: 8})
	now := at(1)
	admitted := 0
	for i := 0; i < 100; i++ {
		src := packet.Addr(i + 10)
		cap := grantFor(t, r, src, 2, 32, 10, now)
		pkt := regPacket(src, 2, packet.KindRegular, uint64(i), []uint64{cap}, 32, 10, 1000)
		if r.Process(pkt, 0, now) == packet.ClassRegular {
			admitted++
		}
	}
	if got := r.Cache().Len(); got > 8 {
		t.Errorf("cache exceeded bound: %d > 8", got)
	}
	if admitted == 0 {
		t.Error("no flows admitted at all")
	}
}

func TestProcessDropsConsistencyWithFlowcacheKey(t *testing.T) {
	// Same source, different destinations are distinct flows (§3.5).
	r := newTestRouter(false)
	now := at(1)
	capA := grantFor(t, r, 1, 2, 32, 10, now)
	capB := grantFor(t, r, 1, 3, 32, 10, now)
	a := regPacket(1, 2, packet.KindRegular, 5, []uint64{capA}, 32, 10, 100)
	b := regPacket(1, 3, packet.KindRegular, 6, []uint64{capB}, 32, 10, 100)
	r.Process(a, 0, now)
	r.Process(b, 0, now)
	if r.Cache().Len() != 2 {
		t.Errorf("flows not keyed by (src,dst): %d entries", r.Cache().Len())
	}
	if r.Cache().Lookup(1, 2) == nil || r.Cache().Lookup(1, 3) == nil {
		t.Error("missing per-destination entries")
	}
}

func TestNewAuthorityCache(t *testing.T) {
	if NewAuthorityCache(5).Max() != 5 {
		t.Error("cache sizing ignored")
	}
	var _ *flowcache.Cache = NewAuthorityCache(1)
}
