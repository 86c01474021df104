// Integration tests against the public facade: the paper's end-to-end
// claims exercised through exactly the API a downstream user sees.
package tva_test

import (
	"math/rand"
	"testing"
	"time"

	"tva"
)

// fixedClock drives facade-level protocol tests.
type fixedClock struct{ t tva.Time }

func (c *fixedClock) Now() tva.Time { return c.t }

func TestFacadeCapabilityLifecycle(t *testing.T) {
	clock := &fixedClock{}
	router := tva.NewRouter(tva.RouterConfig{TrustBoundary: true})

	alice := tva.AddrFrom(10, 0, 0, 1)
	bob := tva.AddrFrom(10, 0, 0, 2)
	shims := map[tva.Addr]*tva.Shim{}
	deliver := func(pkt *tva.Packet) {
		router.Process(pkt, 0, clock.Now())
		if s := shims[pkt.Dst]; s != nil {
			s.Receive(pkt)
		}
	}
	a := tva.NewShim(alice, tva.NewClientPolicy(), clock, rand.New(rand.NewSource(1)),
		tva.ShimConfig{AutoReturn: true})
	b := tva.NewShim(bob, tva.NewServerPolicy(), clock, rand.New(rand.NewSource(2)),
		tva.ShimConfig{AutoReturn: true})
	a.Output, b.Output = deliver, deliver
	shims[alice], shims[bob] = a, b

	var delivered int
	b.Deliver = func(src tva.Addr, proto tva.Proto, payload any, size int, demoted bool) {
		if demoted {
			t.Errorf("authorized traffic demoted")
		}
		delivered++
	}

	a.Send(bob, tva.ProtoRaw, nil, 100) // request
	if !a.HasCaps(bob) {
		t.Fatal("handshake failed through the facade")
	}
	for i := 0; i < 10; i++ {
		a.Send(bob, tva.ProtoRaw, nil, 1000)
	}
	if delivered != 11 {
		t.Errorf("delivered %d, want 11", delivered)
	}
	if router.Cache().Len() == 0 {
		t.Error("router kept no flow state for an active flow")
	}
}

func TestFacadeAuthorityRoundtrip(t *testing.T) {
	auth := tva.NewAuthority(0)
	now := tva.Time(5e9)
	pre := auth.PreCap(1, 2, now)
	cap := tva.CryptoSuite.MakeCap(pre, 32, 10)
	if !auth.ValidateCap(1, 2, cap, 32, 10, now) {
		t.Error("facade authority roundtrip failed")
	}
	if auth.ValidateCap(2, 1, cap, 32, 10, now) {
		t.Error("capability valid for the reverse flow")
	}
}

// TestHeadlineClaim is the abstract's sentence as a test: "attack
// traffic can only degrade legitimate traffic to a limited extent,
// significantly outperforming previously proposed DoS solutions."
func TestHeadlineClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	const attackers = 100
	dur := 15 * time.Second
	frac := map[tva.Scheme]float64{}
	for _, s := range []tva.Scheme{tva.SchemeInternet, tva.SchemeSIFF, tva.SchemePushback, tva.SchemeTVA} {
		frac[s] = tva.RunSim(tva.SimConfig{
			Scheme: s, Attack: tva.AttackLegacyFlood,
			NumAttackers: attackers, Duration: dur, Seed: 1,
		}).CompletionFraction()
	}
	if frac[tva.SchemeTVA] < 0.95 {
		t.Errorf("TVA completion %.3f under 10x flood, want ≥0.95", frac[tva.SchemeTVA])
	}
	for _, s := range []tva.Scheme{tva.SchemeInternet, tva.SchemeSIFF} {
		if frac[s] >= frac[tva.SchemeTVA] {
			t.Errorf("%v (%.3f) not outperformed by TVA (%.3f)", s, frac[s], frac[tva.SchemeTVA])
		}
	}
}

// TestSweepShapeFig8 checks the qualitative Fig. 8 curve through the
// facade's RunSims: TVA flat, Internet monotonically collapsing.
func TestSweepShapeFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	counts := []int{1, 30, 100}
	var cfgs []tva.SimConfig
	for _, scheme := range []tva.Scheme{tva.SchemeTVA, tva.SchemeInternet} {
		for _, k := range counts {
			cfgs = append(cfgs, tva.SimConfig{
				Scheme: scheme, Attack: tva.AttackLegacyFlood, NumAttackers: k,
				Duration: 12 * time.Second, Seed: 1,
			})
		}
	}
	res := tva.RunSims(cfgs, 0)

	for _, r := range res[:len(counts)] {
		if c := r.CompletionFraction(); c < 0.95 {
			t.Errorf("TVA k=%d completion %.3f", r.Cfg.NumAttackers, c)
		}
		if x := r.AvgTransferTime(); x > 0.4 {
			t.Errorf("TVA k=%d transfer time %.3f", r.Cfg.NumAttackers, x)
		}
	}

	net := res[len(counts):]
	if !(net[0].CompletionFraction() > net[1].CompletionFraction() &&
		net[1].CompletionFraction() >= net[2].CompletionFraction()) {
		t.Errorf("Internet completion not monotone under rising attack: %.3f %.3f %.3f",
			net[0].CompletionFraction(), net[1].CompletionFraction(), net[2].CompletionFraction())
	}
}

func TestOverlayThroughFacade(t *testing.T) {
	router, err := tva.NewOverlayRouter(tva.OverlayRouterConfig{
		Listen: "127.0.0.1:0",
		Core:   tva.RouterConfig{TrustBoundary: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	mk := func(addr tva.Addr, pol tva.Policy) *tva.OverlayHost {
		h, err := tva.NewOverlayHost(tva.OverlayHostConfig{
			Addr: addr, Listen: "127.0.0.1:0", Gateway: router.Addr().String(),
			Policy: pol, Shim: tva.ShimConfig{AutoReturn: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		if err := router.AddRoute(addr, h.UDPAddr().String()); err != nil {
			t.Fatal(err)
		}
		return h
	}
	alice := mk(tva.AddrFrom(10, 0, 0, 1), tva.NewClientPolicy())
	bob := mk(tva.AddrFrom(10, 0, 0, 2), tva.NewServerPolicy())

	if err := alice.Send(bob.Addr(), []byte("facade")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-bob.Inbox:
		if string(msg.Payload) != "facade" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery through facade overlay")
	}
}
