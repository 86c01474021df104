package siff

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

func at(sec float64) tvatime.Time { return tvatime.FromSeconds(sec) }

func TestMarkerCheckCurrentAndPrevious(t *testing.T) {
	m := NewMarker()
	mark := m.Mark(1, 2, at(1))
	if !m.Check(1, 2, mark, at(2)) {
		t.Error("mark invalid within its own epoch")
	}
	if !m.Check(1, 2, mark, at(4)) {
		t.Error("mark invalid in the next epoch (previous secret)")
	}
	if m.Check(1, 2, mark, at(7)) {
		t.Error("mark valid after two epochs")
	}
	// A quiet gap of several epochs must retire both secrets at once: a
	// mark carries no epoch, so a slot left over from before the gap
	// would pass as the previous secret.
	mark = m.Mark(1, 2, at(8))
	if m.Check(1, 2, mark, at(17)) {
		t.Error("mark valid after a quiet gap of three epochs")
	}
}

func TestMarkerBinding(t *testing.T) {
	m := NewMarker()
	mark := m.Mark(1, 2, at(1))
	if m.Check(1, 3, mark, at(1)) || m.Check(9, 2, mark, at(1)) {
		t.Error("mark validated for a different flow")
	}
	if m.Check(1, 2, mark^1, at(1)) {
		t.Error("tampered mark validated")
	}
	other := NewMarker()
	if other.Check(1, 2, mark, at(1)) {
		t.Error("mark validated at a different router")
	}
}

func req(src, dst packet.Addr) *packet.Packet {
	h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoRaw}
	return &packet.Packet{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
		Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}
}

func TestRouterRequestIsLegacyPriority(t *testing.T) {
	r := NewRouter()
	pkt := req(1, 2)
	class, drop := r.Process(pkt, at(0))
	if drop {
		t.Fatal("request dropped")
	}
	if class != packet.ClassLegacy {
		t.Errorf("SIFF request class = %v, want legacy (the SIFF weakness)", class)
	}
	if len(pkt.Hdr.Request.PreCaps) != 1 {
		t.Error("mark not stamped")
	}
}

func TestRouterValidAndInvalidMarks(t *testing.T) {
	r := NewRouter()
	rq := req(1, 2)
	r.Process(rq, at(0))
	mark := rq.Hdr.Request.PreCaps[0]

	good := &packet.Packet{Src: 1, Dst: 2, Proto: packet.ProtoRaw, Size: 100,
		Hdr: &packet.CapHdr{Kind: packet.KindRegular, Caps: []uint64{mark}}}
	class, drop := r.Process(good, at(1))
	if drop || class != packet.ClassRegular {
		t.Fatalf("valid mark: class=%v drop=%v", class, drop)
	}

	bad := &packet.Packet{Src: 1, Dst: 2, Proto: packet.ProtoRaw, Size: 100,
		Hdr: &packet.CapHdr{Kind: packet.KindRegular, Caps: []uint64{mark ^ 1}}}
	if _, drop := r.Process(bad, at(1)); !drop {
		t.Error("invalid mark must be dropped, not demoted (SIFF)")
	}
	if r.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", r.Dropped())
	}
	if r.Drops.Get(telemetry.DropCapInvalid) != 1 {
		t.Errorf("drop not attributed to cap-invalid: %+v", r.Drops)
	}
}

func TestRouterNoByteLimit(t *testing.T) {
	// SIFF places no limit on how much an authorized flow sends: the
	// same mark forwards arbitrarily many bytes until rotation.
	r := NewRouter()
	rq := req(1, 2)
	r.Process(rq, at(0))
	mark := rq.Hdr.Request.PreCaps[0]
	for i := 0; i < 10_000; i++ {
		pkt := &packet.Packet{Src: 1, Dst: 2, Proto: packet.ProtoRaw, Size: 1500,
			Hdr: &packet.CapHdr{Kind: packet.KindRegular, Caps: []uint64{mark}}}
		if _, drop := r.Process(pkt, at(1)); drop {
			t.Fatalf("packet %d dropped despite valid mark (no byte limit in SIFF)", i)
		}
	}
}

func TestRouterMarkDiesOnRotation(t *testing.T) {
	r := NewRouter()
	rq := req(1, 2)
	r.Process(rq, at(0))
	mark := rq.Hdr.Request.PreCaps[0]
	pkt := func() *packet.Packet {
		return &packet.Packet{Src: 1, Dst: 2, Proto: packet.ProtoRaw, Size: 100,
			Hdr: &packet.CapHdr{Kind: packet.KindRegular, Caps: []uint64{mark}}}
	}
	if _, drop := r.Process(pkt(), at(5)); drop {
		t.Error("mark should survive one rotation")
	}
	if _, drop := r.Process(pkt(), at(7)); !drop {
		t.Error("mark survived two rotations; destination can never revoke (§5.4)")
	}
}

// siffWire glues two SIFF shims through one router.
type siffWire struct {
	now    tvatime.Time
	router *Router
	shims  map[packet.Addr]*Shim
	drops  int
}

func (w *siffWire) Now() tvatime.Time { return w.now }

func newSIFFWire() *siffWire {
	return &siffWire{router: NewRouter(), shims: map[packet.Addr]*Shim{}}
}

func (w *siffWire) addHost(addr packet.Addr, policy Policy) *Shim {
	s := NewShim(addr, policy, w, ShimConfig{AutoReturn: true})
	s.Output = func(pkt *packet.Packet) {
		if _, drop := w.router.Process(pkt, w.now); drop {
			w.drops++
			return
		}
		if d := w.shims[pkt.Dst]; d != nil {
			d.Receive(pkt)
		}
	}
	w.shims[addr] = s
	return s
}

func alwaysGrant(packet.Addr, tvatime.Time) bool { return true }

func TestSIFFHandshake(t *testing.T) {
	w := newSIFFWire()
	c := w.addHost(1, PolicyFunc(alwaysGrant))
	w.addHost(2, PolicyFunc(alwaysGrant))
	c.Send(2, packet.ProtoRaw, nil, 100)
	if !c.HasCaps(2) {
		t.Fatal("handshake failed")
	}
	c.Send(2, packet.ProtoRaw, nil, 100)
	if c.Stats.RegularSent != 1 {
		t.Errorf("RegularSent = %d, want 1", c.Stats.RegularSent)
	}
	if w.drops != 0 {
		t.Errorf("unexpected drops: %d", w.drops)
	}
}

func TestSIFFShimReRequestsAfterStaleness(t *testing.T) {
	w := newSIFFWire()
	c := w.addHost(1, PolicyFunc(alwaysGrant))
	w.addHost(2, PolicyFunc(alwaysGrant))
	c.Send(2, packet.ProtoRaw, nil, 100)
	w.now = at(4) // past the assumed secret period
	c.Send(2, packet.ProtoRaw, nil, 100)
	if c.Stats.ReRequests != 1 {
		t.Errorf("ReRequests = %d, want 1 (marks presumed dead)", c.Stats.ReRequests)
	}
	// The re-request re-granted fresh marks inline (auto-return).
	if !c.HasCaps(2) {
		t.Error("re-request did not refresh marks")
	}
}

func TestSIFFShimSilenceFallback(t *testing.T) {
	w := newSIFFWire()
	c := w.addHost(1, PolicyFunc(alwaysGrant))
	w.addHost(2, PolicyFunc(alwaysGrant))
	c.Send(2, packet.ProtoRaw, nil, 100)
	if !c.HasCaps(2) {
		t.Fatal("no caps")
	}
	// Simulate the peer going silent while we keep sending: after the
	// silence timeout the shim must fall back to requesting.
	w.shims[2] = nil // blackhole the peer
	c.Send(2, packet.ProtoRaw, nil, 100)
	w.now = at(2)
	c.Send(2, packet.ProtoRaw, nil, 100)
	if c.Stats.ReRequests != 1 {
		t.Errorf("ReRequests = %d, want 1 after silence", c.Stats.ReRequests)
	}
}

func TestSIFFForget(t *testing.T) {
	w := newSIFFWire()
	c := w.addHost(1, PolicyFunc(alwaysGrant))
	w.addHost(2, PolicyFunc(alwaysGrant))
	c.Send(2, packet.ProtoRaw, nil, 100)
	if !c.HasCaps(2) {
		t.Fatal("no caps")
	}
	c.Forget(2)
	if c.HasCaps(2) {
		t.Error("Forget did not clear marks")
	}
}

func TestSIFFRefusedStaysUnauthorized(t *testing.T) {
	w := newSIFFWire()
	c := w.addHost(1, PolicyFunc(alwaysGrant))
	w.addHost(2, PolicyFunc(func(packet.Addr, tvatime.Time) bool { return false }))
	c.Send(2, packet.ProtoRaw, nil, 100)
	if c.HasCaps(2) {
		t.Error("refused sender got marks")
	}
}
