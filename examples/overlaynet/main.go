// Overlay network: TVA over real UDP sockets on localhost — the
// incremental-deployment form of the paper's §8 (inline processing
// boxes plus host proxies).
//
// A capability router and two host proxies start on loopback; Alice
// pings Bob through the router, bootstrapping capabilities on the
// first exchange and riding the flow-nonce fast path afterwards.
//
//	go run ./examples/overlaynet
package main

import (
	"fmt"
	"log"
	"time"

	"tva"
)

func main() {
	router, err := tva.NewOverlayRouter(tva.OverlayRouterConfig{
		Listen: "127.0.0.1:0",
		Core:   tva.RouterConfig{TrustBoundary: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()

	aliceAddr := tva.AddrFrom(10, 0, 0, 1)
	bobAddr := tva.AddrFrom(10, 0, 0, 2)

	newHost := func(addr tva.Addr, policy tva.Policy) *tva.OverlayHost {
		h, err := tva.NewOverlayHost(tva.OverlayHostConfig{
			Addr:    addr,
			Listen:  "127.0.0.1:0",
			Gateway: router.Addr().String(),
			Policy:  policy,
			Shim:    tva.ShimConfig{AutoReturn: true},
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := router.AddRoute(addr, h.UDPAddr().String()); err != nil {
			log.Fatal(err)
		}
		return h
	}

	alice := newHost(aliceAddr, tva.NewClientPolicy())
	defer alice.Close()
	bob := newHost(bobAddr, tva.NewServerPolicy())
	defer bob.Close()

	// Bob echoes.
	go func() {
		for msg := range bob.Inbox {
			bob.Send(msg.Src, msg.Payload)
		}
	}()

	fmt.Printf("router %s, alice %s, bob %s\n\n", router.Addr(), alice.UDPAddr(), bob.UDPAddr())
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := alice.Send(bobAddr, []byte(fmt.Sprintf("ping %d", i))); err != nil {
			log.Fatal(err)
		}
		select {
		case msg := <-alice.Inbox:
			mode := "request"
			if alice.HasCaps(bobAddr) {
				mode = "capability"
			}
			fmt.Printf("reply %q rtt=%v mode=%s\n", msg.Payload,
				time.Since(start).Round(time.Microsecond), mode)
		case <-time.After(2 * time.Second):
			fmt.Println("timeout")
		}
		time.Sleep(50 * time.Millisecond)
	}

	st := alice.Stats()
	fmt.Printf("\nalice shim: requests=%d grants=%d regular=%d nonce-only=%d\n",
		st.RequestsSent, st.GrantsReceived, st.RegularSent, st.NonceOnlySent)
	fmt.Printf("router: received=%d forwarded=%d\n", router.Received.Load(), router.Forwarded.Load())
}
