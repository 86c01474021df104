package core

import (
	"math/rand"
	"testing"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

// wire glues two shims through a chain of routers with a controllable
// clock and immediate, lossless delivery — the minimal end-to-end TVA
// path for protocol tests.
type wire struct {
	now     tvatime.Time
	routers []*Router
	shims   map[packet.Addr]*Shim

	// dropNext drops the next n forwarded packets (loss injection).
	dropNext int
	// forwarded log of classes seen at the first router.
	classes []packet.Class
}

func (w *wire) Now() tvatime.Time { return w.now }

func (w *wire) advance(d tvatime.Duration) { w.now = w.now.Add(d) }

func newWire(nRouters int) *wire {
	w := &wire{shims: make(map[packet.Addr]*Shim)}
	for i := 0; i < nRouters; i++ {
		w.routers = append(w.routers, NewRouter(RouterConfig{
			CacheEntries:  128,
			TrustBoundary: i == 0,
		}))
	}
	return w
}

func (w *wire) addHost(addr packet.Addr, policy Policy) *Shim {
	s := NewShim(addr, policy, w, rand.New(rand.NewSource(int64(addr))), ShimConfig{
		AutoReturn: true,
	})
	s.Output = func(pkt *packet.Packet) { w.route(pkt) }
	w.shims[addr] = s
	return s
}

// route runs a packet through every router (in order for "left" hosts;
// the chain is symmetric for this harness) and delivers it.
func (w *wire) route(pkt *packet.Packet) {
	for i, r := range w.routers {
		class := r.Process(pkt, 0, w.now)
		if i == 0 {
			w.classes = append(w.classes, class)
		}
	}
	if w.dropNext > 0 {
		w.dropNext--
		return
	}
	if dst := w.shims[pkt.Dst]; dst != nil {
		dst.Receive(pkt)
	}
}

func TestHandshakeGrantsCapabilities(t *testing.T) {
	w := newWire(2)
	client := w.addHost(1, NewClientPolicy())
	server := w.addHost(2, NewServerPolicy())
	_ = server

	if client.HasCaps(2) {
		t.Fatal("client should start without capabilities")
	}
	client.Send(2, packet.ProtoRaw, nil, 100) // becomes a request
	if !client.HasCaps(2) {
		t.Fatal("grant did not arrive (auto-return carrier)")
	}
	if client.Stats.RequestsSent != 1 || client.Stats.GrantsReceived != 1 {
		t.Errorf("stats: %+v", client.Stats)
	}
}

func TestDataFlowsRegularThenNonceOnly(t *testing.T) {
	w := newWire(2)
	client := w.addHost(1, NewClientPolicy())
	w.addHost(2, NewServerPolicy())

	client.Send(2, packet.ProtoRaw, nil, 100) // request → grant
	w.classes = nil
	client.Send(2, packet.ProtoRaw, nil, 100) // first regular w/ caps
	client.Send(2, packet.ProtoRaw, nil, 100) // nonce-only
	client.Send(2, packet.ProtoRaw, nil, 100)
	for i, c := range w.classes {
		if c != packet.ClassRegular {
			t.Errorf("packet %d class %v, want regular", i, c)
		}
	}
	if client.Stats.RegularSent != 1 {
		t.Errorf("RegularSent = %d, want 1 (then nonce-only)", client.Stats.RegularSent)
	}
	if client.Stats.NonceOnlySent != 2 {
		t.Errorf("NonceOnlySent = %d, want 2", client.Stats.NonceOnlySent)
	}
}

func TestRefusedSenderStaysLegacy(t *testing.T) {
	w := newWire(1)
	client := w.addHost(1, NewClientPolicy())
	w.addHost(2, RefuseAllPolicy{})

	client.Send(2, packet.ProtoRaw, nil, 100)
	if client.HasCaps(2) {
		t.Fatal("refused client believes it has capabilities")
	}
	// Refusals are not carried by standalone packets; the client only
	// learns via piggyback. Either way it must keep requesting.
	client.Send(2, packet.ProtoRaw, nil, 100)
	if client.Stats.RequestsSent != 2 {
		t.Errorf("RequestsSent = %d, want 2", client.Stats.RequestsSent)
	}
}

func TestRenewalBeforeExhaustion(t *testing.T) {
	w := newWire(1)
	client := w.addHost(1, NewClientPolicy())
	server := NewServerPolicy()
	server.GrantKB = 4 // tiny: 4096 bytes
	w.addHost(2, server)

	client.Send(2, packet.ProtoRaw, nil, 100)
	if !client.HasCaps(2) {
		t.Fatal("no grant")
	}
	// Stream ~6 KB in 500B payloads; the shim must renew mid-stream
	// and nothing may be demoted.
	for i := 0; i < 12; i++ {
		client.Send(2, packet.ProtoRaw, nil, 500)
		w.advance(10 * tvatime.Millisecond)
	}
	if client.Stats.RenewalsSent == 0 {
		t.Error("no renewal sent despite approaching N")
	}
	if got := w.routers[0].Stats.Demoted; got != 0 {
		t.Errorf("%d packets demoted; renewal should prevent that", got)
	}
	if client.Stats.GrantsReceived < 2 {
		t.Errorf("GrantsReceived = %d, want ≥2", client.Stats.GrantsReceived)
	}
}

func TestRenewalOnTimeThreshold(t *testing.T) {
	w := newWire(1)
	client := w.addHost(1, NewClientPolicy())
	server := NewServerPolicy()
	server.GrantTSec = 8
	w.addHost(2, server)

	client.Send(2, packet.ProtoRaw, nil, 100)
	w.advance(7 * tvatime.Second) // past 0.75*T
	client.Send(2, packet.ProtoRaw, nil, 100)
	if client.Stats.RenewalsSent == 0 {
		t.Error("no renewal near T")
	}
}

func TestDemotionEchoAndRepair(t *testing.T) {
	w := newWire(1)
	client := w.addHost(1, NewClientPolicy())
	w.addHost(2, NewServerPolicy())

	client.Send(2, packet.ProtoRaw, nil, 100)
	client.Send(2, packet.ProtoRaw, nil, 100) // seeds router cache
	w.advance(200 * tvatime.Millisecond)

	// Simulate router state loss: clear the flow cache, so the next
	// nonce-only packet is demoted (§3.8).
	*w.routers[0].Cache() = *NewAuthorityCache(128)
	client.Send(2, packet.ProtoRaw, nil, 100)
	if w.routers[0].Stats.Demoted != 1 {
		t.Fatalf("expected a demotion after cache loss, got %d", w.routers[0].Stats.Demoted)
	}
	// The destination echoed the demotion (auto-return); the client
	// repairs by re-attaching its capability list.
	if client.Stats.DemotionsSeen != 0 {
		t.Error("client itself should not see demoted packets here")
	}
	if client.Stats.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", client.Stats.Repairs)
	}
	w.advance(200 * tvatime.Millisecond)
	w.classes = nil
	client.Send(2, packet.ProtoRaw, nil, 100) // re-attaches caps
	if w.classes[0] != packet.ClassRegular {
		t.Error("repair packet not regular (cache not rebuilt)")
	}
	if w.routers[0].Cache().Len() != 1 {
		t.Error("router cache not repopulated by repair")
	}
}

func TestIdleReattach(t *testing.T) {
	w := newWire(1)
	client := w.addHost(1, NewClientPolicy())
	server := NewServerPolicy()
	server.GrantTSec = 60
	w.addHost(2, server)

	client.Send(2, packet.ProtoRaw, nil, 100)
	client.Send(2, packet.ProtoRaw, nil, 100)
	regularBefore := client.Stats.RegularSent
	// Idle past the reattach guard: the next packet carries the full
	// capability list in case routers evicted the flow (§3.7).
	w.advance(5 * tvatime.Second)
	client.Send(2, packet.ProtoRaw, nil, 100)
	if client.Stats.RegularSent != regularBefore+1 {
		t.Errorf("idle resume did not re-attach capabilities: %+v", client.Stats)
	}
}

func TestReturnInfoPiggybacksOnReverseTraffic(t *testing.T) {
	w := newWire(1)
	a := w.addHost(1, NewServerPolicy())
	b := w.addHost(2, NewServerPolicy())
	_ = b

	// a requests to b; b grants via an auto-return carrier. The
	// carrier itself must NOT earn b capabilities (it is pure control;
	// see the anti-loop rule) — b bootstraps its own direction with
	// its first real packet toward a.
	a.Send(2, packet.ProtoRaw, nil, 100)
	if !a.HasCaps(2) {
		t.Fatal("a did not get capabilities")
	}
	if b.HasCaps(1) {
		t.Fatal("control carrier alone granted b capabilities")
	}
	b.Send(1, packet.ProtoRaw, nil, 100) // real reverse traffic: a request
	if !b.HasCaps(1) {
		t.Fatal("reverse direction did not bootstrap on real traffic")
	}
}

func TestServerPolicyBlacklist(t *testing.T) {
	p := NewServerPolicy()
	now := tvatime.FromSeconds(1)
	if _, _, ok := p.Authorize(5, now); !ok {
		t.Fatal("first request refused")
	}
	p.MarkMisbehaving(5, now)
	if _, _, ok := p.Authorize(5, now); ok {
		t.Fatal("blacklisted source granted")
	}
	if _, _, ok := p.Authorize(6, now); !ok {
		t.Fatal("innocent source refused")
	}
	if !p.Blacklisted(5) || p.Blacklisted(6) {
		t.Error("Blacklisted() inconsistent")
	}
}

func TestServerPolicyParole(t *testing.T) {
	p := NewServerPolicy()
	p.BlacklistFor = 10 * tvatime.Second
	p.MarkMisbehaving(5, tvatime.FromSeconds(0))
	if _, _, ok := p.Authorize(5, tvatime.FromSeconds(5)); ok {
		t.Fatal("granted during blacklist period")
	}
	if _, _, ok := p.Authorize(5, tvatime.FromSeconds(11)); !ok {
		t.Fatal("not paroled after blacklist period")
	}
}

func TestClientPolicyMatchesOutbound(t *testing.T) {
	p := NewClientPolicy()
	now := tvatime.FromSeconds(100)
	if _, _, ok := p.Authorize(7, now); ok {
		t.Fatal("unsolicited request granted")
	}
	p.NoteOutboundRequest(7, now)
	if _, _, ok := p.Authorize(7, now.Add(tvatime.Second)); !ok {
		t.Fatal("matching response refused")
	}
	// Window expiry.
	if _, _, ok := p.Authorize(7, now.Add(31*tvatime.Second)); ok {
		t.Fatal("stale match granted")
	}
}

func TestGrantDefaults(t *testing.T) {
	p := NewServerPolicy()
	nkb, tsec, ok := p.Authorize(1, 0)
	if !ok || nkb != DefaultGrantKB || tsec != DefaultGrantTSec {
		t.Errorf("defaults: %d/%d/%v", nkb, tsec, ok)
	}
	aa := &AllowAllPolicy{}
	nkb, tsec, ok = aa.Authorize(1, 0)
	if !ok || nkb != packet.MaxNKB || tsec != packet.MaxTSeconds {
		t.Errorf("allow-all defaults: %d/%d/%v", nkb, tsec, ok)
	}
}

func TestShimCountsBytesConservatively(t *testing.T) {
	w := newWire(1)
	client := w.addHost(1, NewClientPolicy())
	server := NewServerPolicy()
	server.GrantKB = 2 // 2048 bytes
	w.addHost(2, server)

	client.Send(2, packet.ProtoRaw, nil, 100)
	// Exactly fill the authorization; the shim must flip to renewal or
	// request before the router would demote.
	for i := 0; i < 20; i++ {
		client.Send(2, packet.ProtoRaw, nil, 200)
	}
	if got := w.routers[0].Stats.Demoted; got != 0 {
		t.Errorf("shim overdrove its authorization: %d demotions", got)
	}
}

func TestControlCarrierDoesNotTriggerGrantLoop(t *testing.T) {
	w := newWire(1)
	a := w.addHost(1, NewServerPolicy())
	b := w.addHost(2, NewServerPolicy())
	a.Send(2, packet.ProtoRaw, nil, 100)
	// Bounded control chatter: a handful of carriers at most.
	if a.Stats.AutoReturns+b.Stats.AutoReturns > 4 {
		t.Errorf("carrier storm: a=%d b=%d", a.Stats.AutoReturns, b.Stats.AutoReturns)
	}
}
