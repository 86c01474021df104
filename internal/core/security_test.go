// Security analysis tests: the threat catalogue of paper §7, each
// attack expressed against the real protocol machinery.
package core

import (
	"math/rand"
	"testing"

	"tva/internal/capability"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// §7: "An attacker might try to obtain capabilities by breaking the
// hashing scheme" — random guessing must fail (the 56-bit space is
// covered by the crypto tests; here: no structural shortcut).
func TestSecGuessedCapabilityRejected(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		guess := rng.Uint64()
		pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{guess}, 32, 10, 100)
		if r.Process(pkt, 0, now) == packet.ClassRegular {
			t.Fatal("guessed capability accepted")
		}
	}
}

// §7: "A different attack is to steal and use capabilities belonging
// to a sender... the attacker will not generally be able to send
// packets along the same path" — a capability is bound to (src, dst),
// so using it from any other source or toward any other destination
// fails, as does presenting it to a different router.
func TestSecStolenCapabilityUnusable(t *testing.T) {
	victim := newTestRouter(false)
	other := newTestRouter(false)
	now := at(1)
	cap := grantFor(t, victim, 1, 2, 32, 10, now)

	cases := []struct {
		name     string
		router   *Router
		src, dst packet.Addr
	}{
		{"other source", victim, 9, 2},
		{"other destination", victim, 1, 9},
		{"other router", other, 1, 2},
	}
	for _, c := range cases {
		pkt := regPacket(c.src, c.dst, packet.KindRegular, 5, []uint64{cap}, 32, 10, 100)
		if c.router.Process(pkt, 0, now) == packet.ClassRegular {
			t.Errorf("%s: stolen capability accepted", c.name)
		}
	}
}

// §7: replay of very old capabilities "for which the local router
// clock has wrapped are handled... by periodically changing the router
// secret". A capability recorded by an eavesdropper and replayed two
// secret periods later must fail even if its (mod 256) timestamp looks
// fresh again.
func TestSecOldCapabilityReplayFails(t *testing.T) {
	r := NewRouter(RouterConfig{SecretPeriod: 8 * tvatime.Second, CacheEntries: 16})
	now := at(1)
	cap := grantFor(t, r, 1, 2, 32, 63, now)

	fresh := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 32, 63, 100)
	if r.Process(fresh, 0, now) != packet.ClassRegular {
		t.Fatal("setup: fresh capability rejected")
	}
	// Two secret rotations later (but well inside T=63s): the secret
	// that minted it is retired.
	replay := regPacket(1, 2, packet.KindRegular, 6, []uint64{cap}, 32, 63, 100)
	if r.Process(replay, 0, at(20)) == packet.ClassRegular {
		t.Error("capability replayed across two secret rotations accepted")
	}
}

// §7 / §3.5: the nonce fast path must not outlive its capability — an
// attacker replaying a sniffed nonce after the authorization expires
// gets demoted.
func TestSecNonceReplayAfterExpiry(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	cap := grantFor(t, r, 1, 2, 32, 2, now)
	first := regPacket(1, 2, packet.KindRegular, 42, []uint64{cap}, 32, 2, 100)
	if r.Process(first, 0, now) != packet.ClassRegular {
		t.Fatal("setup failed")
	}
	replay := regPacket(1, 2, packet.KindNonceOnly, 42, nil, 0, 0, 100)
	if r.Process(replay, 0, at(10)) == packet.ClassRegular {
		t.Error("nonce accepted after the capability expired")
	}
}

// §7: a nonce guessed by an off-path attacker (who cannot see the
// flow's traffic) succeeds with probability 2^-48 per try; any wrong
// guess is demoted.
func TestSecNonceGuessing(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	cap := grantFor(t, r, 1, 2, 32, 10, now)
	first := regPacket(1, 2, packet.KindRegular, 777, []uint64{cap}, 32, 10, 100)
	r.Process(first, 0, now)

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		guess := rng.Uint64() & packet.NonceMask
		if guess == 777 {
			continue
		}
		pkt := regPacket(1, 2, packet.KindNonceOnly, guess, nil, 0, 0, 100)
		if r.Process(pkt, 0, now) == packet.ClassRegular {
			t.Fatal("guessed flow nonce accepted")
		}
	}
}

// §7: "an attacker and a colluder can spoof authorized traffic as if
// it were sent by a different sender S" — the colluder authorizes
// src=S, and the attacker floods with S's address. The flood is
// *valid* (this is the paper's point), but with TVA's default
// per-destination queuing it shares the colluder's queue and cannot
// touch S's traffic to other destinations. Here we verify the
// mechanics: the spoofed flow's capability only works for (S,
// colluder), so the attacker gains nothing against S's own peers.
func TestSecSpoofedAuthorizationScopedToColluder(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	const s, colluder, victim = 11, 22, 33
	capToColluder := grantFor(t, r, s, colluder, 32, 10, now)

	// The spoofed flood toward the colluder validates...
	flood := regPacket(s, colluder, packet.KindRegular, 5, []uint64{capToColluder}, 32, 10, 1000)
	if r.Process(flood, 0, now) != packet.ClassRegular {
		t.Fatal("colluder-authorized spoofed traffic should validate")
	}
	// ...but is useless against any destination S actually talks to.
	cross := regPacket(s, victim, packet.KindRegular, 6, []uint64{capToColluder}, 32, 10, 1000)
	if r.Process(cross, 0, now) == packet.ClassRegular {
		t.Error("colluder-issued capability crossed to another destination")
	}
}

// §3.4: "each pre-capability is valid for about the same time period
// regardless of when it is issued" — a capability issued just before
// a secret change is still honoured (previous secret) rather than
// dying instantly.
func TestSecCapabilitySurvivesOneRotation(t *testing.T) {
	r := NewRouter(RouterConfig{SecretPeriod: 8 * tvatime.Second, CacheEntries: 16})
	mint := at(7.5) // half a second before rotation at t=8
	cap := grantFor(t, r, 1, 2, 32, 10, mint)
	pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 32, 10, 100)
	if r.Process(pkt, 0, at(9)) != packet.ClassRegular {
		t.Error("capability died at the secret rotation despite being within T")
	}
}

// §3.6's attack: "colluding attackers may create many authorized
// connections across a target link" to exhaust router memory. The
// cache admits at most its bound and legitimate established flows
// (fast senders with live ttl) are never evicted for the attackers.
func TestSecStateExhaustionBounded(t *testing.T) {
	r := NewRouter(RouterConfig{CacheEntries: 32})
	now := at(1)

	// A legitimate fast flow (keeps its ttl alive). Granted the
	// maximum N so the byte budget outlasts the test's keep-alives.
	legit := grantFor(t, r, 1, 2, packet.MaxNKB, 10, now)
	first := regPacket(1, 2, packet.KindRegular, 7, []uint64{legit}, packet.MaxNKB, 10, 1000)
	if r.Process(first, 0, now) != packet.ClassRegular {
		t.Fatal("setup failed")
	}

	// 1000 attacker flows try to claim state.
	for i := 0; i < 1000; i++ {
		src := packet.Addr(100 + i)
		cap := grantFor(t, r, src, 2, 32, 10, now)
		pkt := regPacket(src, 2, packet.KindRegular, uint64(i), []uint64{cap}, 32, 10, 1000)
		r.Process(pkt, 0, now)
		// The legitimate flow keeps sending fast, keeping its ttl hot.
		keep := regPacket(1, 2, packet.KindNonceOnly, 7, nil, 0, 0, 1000)
		if r.Process(keep, 0, now) != packet.ClassRegular {
			t.Fatalf("legitimate flow evicted by state-exhaustion attack at %d", i)
		}
	}
	if got := r.Cache().Len(); got > 32 {
		t.Errorf("router state exceeded its bound: %d", got)
	}
}

// §7: source-routed / misdelivered packets are treated as legacy —
// here the invariant that a packet demoted anywhere never re-enters
// the authorized class, even if later routers would validate it.
func TestSecDemotionIsSticky(t *testing.T) {
	r1 := newTestRouter(false)
	r2 := newTestRouter(false)
	now := at(1)
	// Valid only at r2 (e.g. delivered around r1 via source routing).
	req := reqPacket(1, 2, 0)
	r2.Process(req, 0, now)
	cap2 := capability.Crypto.MakeCap(req.Hdr.Request.PreCaps[0], 32, 10)
	pkt := regPacket(1, 2, packet.KindRegular, 5, []uint64{0xBAD, cap2}, 32, 10, 100)
	if r1.Process(pkt, 0, now) != packet.ClassLegacy {
		t.Fatal("r1 accepted a bogus capability")
	}
	if r2.Process(pkt, 0, now) != packet.ClassLegacy {
		t.Error("demoted packet re-promoted by a downstream router")
	}
}
