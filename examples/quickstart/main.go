// Quickstart: the TVA capability lifecycle end to end, in process.
//
// Two hosts are wired through two capability routers. Watch the
// packets change shape exactly as §4 describes: the first packet is a
// request that routers stamp with pre-capabilities; the destination
// converts them into a fine-grained grant (N bytes over T seconds);
// the next packet carries the capability list, seeding router flow
// caches; and everything after that needs only the 48-bit flow nonce.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"tva"
)

func main() {
	clock := clockAt(0)

	// Two capability routers on the path, as in the paper's Fig. 1.
	routers := []*tva.Router{
		tva.NewRouter(tva.RouterConfig{TrustBoundary: true}),
		tva.NewRouter(tva.RouterConfig{}),
	}

	alice := tva.AddrFrom(10, 0, 0, 1)
	bob := tva.AddrFrom(10, 0, 0, 2)
	shims := map[tva.Addr]*tva.Shim{}

	// deliver pushes a packet through every router and hands it to
	// the destination shim — an instantaneous, lossless "network".
	deliver := func(pkt *tva.Packet) {
		for i, r := range routers {
			class := r.Process(pkt, 0, clock.Now())
			fmt.Printf("    router %d: %-10v -> class %v\n", i+1, kindOf(pkt), class)
		}
		if dst := shims[pkt.Dst]; dst != nil {
			dst.Receive(pkt)
		}
	}

	// Bob is a public server: grant everyone 32 KB over 10 s and
	// blacklist misbehavers (§3.3). Alice is a client.
	bobShim := tva.NewShim(bob, tva.NewServerPolicy(), clock, rng(2), tva.ShimConfig{
		AutoReturn: true,
	})
	aliceShim := tva.NewShim(alice, tva.NewClientPolicy(), clock, rng(1), tva.ShimConfig{
		AutoReturn: true,
	})
	aliceShim.Output = deliver
	bobShim.Output = deliver
	shims[alice], shims[bob] = aliceShim, bobShim

	fmt.Println("1) Alice's first packet piggybacks a capability request:")
	aliceShim.Send(bob, tva.ProtoRaw, []byte("GET /"), 5)
	fmt.Printf("   alice authorized: %v (grant returned on Bob's carrier)\n\n", aliceShim.HasCaps(bob))

	fmt.Println("2) The next packet carries the capability list, seeding router caches:")
	aliceShim.Send(bob, tva.ProtoRaw, []byte("data"), 1000)
	fmt.Println()

	fmt.Println("3) Steady state: packets carry only the 48-bit flow nonce:")
	aliceShim.Send(bob, tva.ProtoRaw, []byte("data"), 1000)
	aliceShim.Send(bob, tva.ProtoRaw, []byte("data"), 1000)
	fmt.Println()

	fmt.Println("4) Approaching the 32 KB authorization, the shim renews in-band:")
	for i := 0; i < 24; i++ {
		aliceShim.Send(bob, tva.ProtoRaw, nil, 1000)
	}
	st := aliceShim.Stats
	fmt.Printf("\nshim stats: requests=%d regular=%d nonce-only=%d renewals=%d grants=%d\n",
		st.RequestsSent, st.RegularSent, st.NonceOnlySent, st.RenewalsSent, st.GrantsReceived)
	fmt.Printf("router 1 flow cache entries: %d\n", routers[0].Cache().Len())
}

func kindOf(pkt *tva.Packet) string {
	if pkt.Hdr == nil {
		return "legacy"
	}
	s := pkt.Hdr.Kind.String()
	if pkt.Hdr.Demoted {
		s += "(demoted)"
	}
	return s
}

type fixedClock struct{ t tva.Time }

func (c *fixedClock) Now() tva.Time { return c.t }

func clockAt(sec int64) *fixedClock {
	return &fixedClock{t: tva.Time(sec * 1e9)}
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
