package overlay

import (
	"fmt"
	"net"
	"testing"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// widths are the Batch settings every end-to-end behaviour must hold
// at — they are widths of one data path, not modes: the default, an
// explicit one, and a burst.
var widths = []int{0, 1, 8}

// testNet builds router←→{alice, bob} on loopback at the default
// widths and returns a cleanup-registered trio.
func testNet(t *testing.T, aPolicy, bPolicy core.Policy) (*Router, *Host, *Host) {
	t.Helper()
	return testNetAt(t, 0, aPolicy, bPolicy)
}

func testNetAt(t *testing.T, batch int, aPolicy, bPolicy core.Policy) (*Router, *Host, *Host) {
	t.Helper()
	r, err := NewRouter(RouterConfig{
		Listen: "127.0.0.1:0",
		Core:   core.RouterConfig{TrustBoundary: true},
		Batch:  batch,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	mkHost := func(addr packet.Addr, policy core.Policy) *Host {
		h, err := NewHost(HostConfig{
			Addr:    addr,
			Listen:  "127.0.0.1:0",
			Gateway: r.Addr().String(),
			Policy:  policy,
			Shim:    core.ShimConfig{AutoReturn: true},
		})
		if err != nil {
			t.Fatalf("host: %v", err)
		}
		t.Cleanup(func() { h.Close() })
		if err := r.AddRoute(addr, h.UDPAddr().String()); err != nil {
			t.Fatalf("route: %v", err)
		}
		return h
	}
	alice := mkHost(packet.AddrFrom(10, 0, 0, 1), aPolicy)
	bob := mkHost(packet.AddrFrom(10, 0, 0, 2), bPolicy)
	return r, alice, bob
}

// forwardEqualRun offers the router 64 equal-length legacy datagrams in
// bursts of 8 toward a sink of its own and requires them back in order
// and intact (TTL one lower). What the egress made of them depends on
// the width: at one, a kernel message per datagram; at a burst width
// with segment offload, fewer messages than datagrams.
func forwardEqualRun(t *testing.T, r *Router, offload bool) {
	t.Helper()
	drv, sink, _, sinkConn := loopbackPair(t, net.IPv4(127, 0, 0, 1), 8)
	dst := packet.AddrFrom(10, 0, 0, 3)
	if err := r.AddRoute(dst, sinkConn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	const total = 64
	in, want := make([][]byte, total), make([][]byte, total)
	for i := range in {
		wire := func(ttl uint8) []byte {
			data, err := (&packet.Packet{Src: packet.AddrFrom(10, 0, 0, 9), Dst: dst, TTL: ttl,
				Proto: packet.ProtoRaw, Payload: []byte(fmt.Sprintf("equal-run-%04d", i))}).Marshal(nil)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		in[i], want[i] = wire(64), wire(63)
	}
	for i := 0; i < total; i += 8 {
		if sent, _, err := drv.sendBatch(in[i:i+8], r.Addr()); err != nil || sent != 8 {
			t.Fatalf("driver burst at %d: sent %d, err %v", i, sent, err)
		}
	}
	expectDatagrams(t, sink, sinkConn, want)
	p := r.route(dst)
	pkts, msgs := p.TxBurstPkts.Load(), p.TxMsgs.Load()
	switch {
	case pkts != total || p.Sent.Load() != total:
		t.Errorf("sink port offered %d and sent %d datagrams, want %d", pkts, p.Sent.Load(), total)
	case r.cfg.Batch == 1 && msgs != total:
		t.Errorf("width 1 sent %d datagrams in %d messages, want one each", total, msgs)
	case r.cfg.Batch > 1 && offload && msgs >= pkts:
		t.Errorf("width %d sent %d equal datagrams in %d messages: nothing coalesced", r.cfg.Batch, pkts, msgs)
	}
}

// forEachWidth runs f as one subtest per Batch setting and
// then holds the router to the invariants no width may break: every
// datagram read is accounted for exactly once, and so is every packet
// handed to a port (Sent, TxFailed or Dropped); an equal-length run
// coalesces on egress exactly where the width allows; burst accounting
// is sane (exactly one datagram per burst at width one, the simulator's
// figure), and every pooled packet is back after Close.
func forEachWidth(t *testing.T, aPolicy, bPolicy func() core.Policy, f func(t *testing.T, r *Router, alice, bob *Host)) {
	offload := segmentOffload(t)
	for _, batch := range widths {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			live := packet.Live()
			r, alice, bob := testNetAt(t, batch, aPolicy(), bPolicy())
			f(t, r, alice, bob)
			forwardEqualRun(t, r, offload)

			// One datagram for each outcome besides Forwarded: garbage, an
			// expired TTL, and a destination with no route.
			raw, err := net.DialUDP("udp", nil, r.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoRaw}
			expired, err := (&packet.Packet{Src: alice.Addr(), Dst: bob.Addr(), TTL: 0,
				Proto: packet.ProtoRaw, Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}).Marshal(nil)
			if err != nil {
				t.Fatal(err)
			}
			raw.Write([]byte("not a tva packet"))
			raw.Write(expired)
			alice.Send(packet.AddrFrom(99, 9, 9, 9), []byte("void"))
			deadline := time.Now().Add(2 * time.Second)
			for r.Malformed.Load() == 0 || r.Expired.Load() == 0 || r.Unroutable.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("outcomes not counted: malformed=%d expired=%d unroutable=%d",
						r.Malformed.Load(), r.Expired.Load(), r.Unroutable.Load())
				}
				time.Sleep(5 * time.Millisecond)
			}

			// Once the queues drain, every forwarded packet is Sent, TxFailed
			// or Dropped at exactly one port, and (nothing here fails to
			// marshal) each port's dequeued = offered = Sent + TxFailed.
			settled := func() bool {
				var out uint64
				for _, p := range r.portList() {
					out += p.Sent.Load() + p.TxFailed.Load() + p.Dropped.Load()
				}
				return out == r.Forwarded.Load()
			}
			for deadline = time.Now().Add(2 * time.Second); !settled() && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			if !settled() {
				t.Errorf("forwarded=%d not conserved across ports: %+v", r.Forwarded.Load(), r.Gauges())
			}
			alice.Close()
			bob.Close()
			r.Close()
			rx, fwd := r.Received.Load(), r.Forwarded.Load()
			if fwd == 0 || rx != fwd+r.Unroutable.Load()+r.Malformed.Load()+r.Expired.Load() {
				t.Errorf("counters not conserved: received=%d forwarded=%d unroutable=%d malformed=%d expired=%d",
					rx, fwd, r.Unroutable.Load(), r.Malformed.Load(), r.Expired.Load())
			}
			if st := r.CoreStats(); st.Requests == 0 {
				t.Errorf("engine saw no requests: %+v", st)
			}
			rxFill, txFill := r.RxBurstFill(), r.TxBurstFill()
			if width := float64(max(batch, 1)); rxFill < 1 || rxFill > width || txFill < 1 || txFill > width {
				t.Errorf("burst fill outside [1, %v]: rx=%v tx=%v", width, rxFill, txFill)
			}
			for _, p := range r.portList() {
				if got, want := p.Sent.Load()+p.TxFailed.Load(), p.TxBurstPkts.Load(); got != want {
					t.Errorf("port %s: Sent+TxFailed = %d, dequeued %d", p.key, got, want)
				}
			}
			if got := packet.Live(); got != live {
				t.Errorf("pool not back to baseline after Close: %d live, started at %d", got, live)
			}
		})
	}
}

func recvWithin(t *testing.T, h *Host, d time.Duration) Message {
	t.Helper()
	select {
	case m := <-h.Inbox:
		return m
	case <-time.After(d):
		t.Fatal("timed out waiting for a message")
		return Message{}
	}
}

// TestOverlayHandshakeAndDelivery runs the full capability handshake
// and a protected transfer at every width: behaviour must not depend
// on how wide the data path is.
func TestOverlayHandshakeAndDelivery(t *testing.T) {
	client := func() core.Policy { return core.NewClientPolicy() }
	server := func() core.Policy { return core.NewServerPolicy() }
	forEachWidth(t, client, server, func(t *testing.T, _ *Router, alice, bob *Host) {
		if err := alice.Send(bob.Addr(), []byte("hello")); err != nil {
			t.Fatal(err)
		}
		msg := recvWithin(t, bob, 2*time.Second)
		if string(msg.Payload) != "hello" || msg.Src != alice.Addr() {
			t.Fatalf("got %+v", msg)
		}

		// The grant should have arrived back at alice (carrier or
		// piggyback); subsequent sends are capability-protected.
		deadline := time.Now().Add(2 * time.Second)
		for !alice.HasCaps(bob.Addr()) {
			if time.Now().After(deadline) {
				t.Fatal("alice never obtained capabilities")
			}
			time.Sleep(10 * time.Millisecond)
		}
		for i := 0; i < 20; i++ {
			if err := alice.Send(bob.Addr(), []byte("again")); err != nil {
				t.Fatal(err)
			}
			msg = recvWithin(t, bob, 2*time.Second)
			if string(msg.Payload) != "again" {
				t.Fatalf("message %d corrupted: %q", i, msg.Payload)
			}
		}
		st := alice.Stats()
		if st.RequestsSent == 0 || st.GrantsReceived == 0 {
			t.Errorf("handshake stats wrong: %+v", st)
		}
	})
}

func TestOverlayBidirectional(t *testing.T) {
	_, alice, bob := testNet(t, core.NewServerPolicy(), core.NewServerPolicy())
	if err := alice.Send(bob.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, bob, 2*time.Second)
	if err := bob.Send(alice.Addr(), []byte("pong")); err != nil {
		t.Fatal(err)
	}
	msg := recvWithin(t, alice, 2*time.Second)
	if string(msg.Payload) != "pong" {
		t.Fatalf("got %q", msg.Payload)
	}
}

// TestOverlayRefusedSenderDemoted: policy outcomes must not change
// with the width either.
func TestOverlayRefusedSenderDemoted(t *testing.T) {
	// Bob refuses everyone; alice's packets stay requests/legacy but
	// still arrive (low priority) on an idle network.
	client := func() core.Policy { return core.NewClientPolicy() }
	refuse := func() core.Policy { return core.RefuseAllPolicy{} }
	forEachWidth(t, client, refuse, func(t *testing.T, _ *Router, alice, bob *Host) {
		for i := 0; i < 3; i++ {
			if err := alice.Send(bob.Addr(), []byte("knock")); err != nil {
				t.Fatal(err)
			}
			recvWithin(t, bob, 2*time.Second)
		}
		if alice.HasCaps(bob.Addr()) {
			t.Error("refused sender believes it is authorized")
		}
	})
}

// TestFlowStateBudget holds the real plane to §3.6's one flow-state
// budget: a router whose engine may keep 64 entries is offered 256
// distinct capability-carrying flows, twice over, and never holds more
// than 64. Every datagram is accounted for, and the engine counts every
// regular packet as a hit or a miss whether or not the cache had room.
func TestFlowStateBudget(t *testing.T) {
	const budget, flows, passes = 64, 256, 2
	r, err := NewRouter(RouterConfig{Listen: "127.0.0.1:0", Batch: 8,
		Core: core.RouterConfig{CacheEntries: budget}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	drv, _, _, sinkConn := loopbackPair(t, net.IPv4(127, 0, 0, 1), 8)
	dst := packet.AddrFrom(10, 0, 0, 3)
	if err := r.AddRoute(dst, sinkConn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	auth := r.Core().Authority()
	now := tvatime.WallClock{}.Now()
	wire := make([][]byte, flows)
	for i := range wire {
		src := packet.AddrFrom(10, 1, byte(i>>8), byte(i))
		h := &packet.CapHdr{Kind: packet.KindRegular, Proto: packet.ProtoRaw,
			Nonce: uint64(i+1) & packet.NonceMask, NKB: packet.MaxNKB, TSec: packet.MaxTSeconds,
			Caps: []uint64{capability.Crypto.MakeCap(auth.PreCap(src, dst, now), packet.MaxNKB, packet.MaxTSeconds)}}
		if wire[i], err = (&packet.Packet{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
			Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}).Marshal(nil); err != nil {
			t.Fatal(err)
		}
	}

	// Windows of 32, each read by the router before the next is sent, so
	// the socket buffer cannot drop any and the cache is checked as it
	// fills.
	sent := 0
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < flows; i += 32 {
			for j := i; j < i+32; j += 8 {
				if n, _, err := drv.sendBatch(wire[j:j+8], r.Addr()); err != nil || n != 8 {
					t.Fatalf("burst at flow %d: sent %d, err %v", j, n, err)
				}
			}
			sent += 32
			// The engine counts each regular packet once, after it is read.
			deadline := time.Now().Add(2 * time.Second)
			for st := r.CoreStats(); st.RegularHit+st.RegularMiss < uint64(sent); st = r.CoreStats() {
				if time.Now().After(deadline) {
					t.Fatalf("engine counted %+v of %d regular packets (router read %d)", st, sent, r.Received.Load())
				}
				time.Sleep(time.Millisecond)
			}
			if n := r.FlowCacheEntries(); n > budget {
				t.Fatalf("after %d packets the flow cache holds %d entries, budget %d", sent, n, budget)
			}
		}
	}

	r.Close() // freezes the counters: the last burst is dispatched
	rx := r.Received.Load()
	if rx != uint64(sent) || rx != r.Forwarded.Load()+r.Unroutable.Load()+r.Malformed.Load()+r.Expired.Load() {
		t.Errorf("counters not conserved: sent=%d received=%d forwarded=%d unroutable=%d malformed=%d expired=%d",
			sent, rx, r.Forwarded.Load(), r.Unroutable.Load(), r.Malformed.Load(), r.Expired.Load())
	}
	if st := r.CoreStats(); st.RegularHit+st.RegularMiss != uint64(sent) {
		t.Errorf("engine counted %d hits + %d misses for %d regular packets", st.RegularHit, st.RegularMiss, sent)
	}
}

// TestPortBatchFailuresCostOnlyThemselves drives one port's encode and
// transmit stages by hand (its goroutine is parked on an empty queue)
// with a packet that cannot marshal and a datagram the kernel cannot
// send, each in the middle of a burst: the neighbours on both sides
// reach the sink, and both failures land in TxFailed so that dequeued
// = Sent + TxFailed.
func TestPortBatchFailuresCostOnlyThemselves(t *testing.T) {
	live := packet.Live()
	r, err := NewRouter(RouterConfig{Listen: "127.0.0.1:0", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, sink, _, sinkConn := loopbackPair(t, net.IPv4(127, 0, 0, 1), 8)
	dst := packet.AddrFrom(10, 0, 0, 3)
	if err := r.AddRoute(dst, sinkConn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	p := r.route(dst)

	for i, payload := range []any{[]byte("left"), struct{}{}, []byte("right")} {
		pkt := packet.AcquirePacket()
		pkt.Src, pkt.Dst, pkt.TTL, pkt.Proto, pkt.Payload = 1, dst, 9, packet.ProtoRaw, payload
		p.pkts[i] = pkt
	}
	r.encode(p, 3)
	if len(p.out) != 2 || p.TxFailed.Load() != 1 {
		t.Fatalf("encode kept %d of 3 packets, TxFailed=%d; want 2 and 1", len(p.out), p.TxFailed.Load())
	}
	want := [][]byte{p.out[0], p.out[1]}
	p.out = [][]byte{want[0], make([]byte, 65508), want[1]}
	r.transmit(p)
	expectDatagrams(t, sink, sinkConn, want)
	g := r.Gauges()[0]
	if g.Sent != 2 || g.TxFailed != 2 || g.TxMsgs != 2 || p.TxBurstPkts.Load() != 3 {
		t.Errorf("after one oversize datagram of three: %+v, offered %d; want Sent 2, TxFailed 2 (with the marshal failure), TxMsgs 2",
			g, p.TxBurstPkts.Load())
	}
	r.Close()
	if got := packet.Live(); got != live {
		t.Errorf("pool not back to baseline: %d live, started at %d", got, live)
	}
}

func TestOverlayRouterStats(t *testing.T) {
	r, alice, bob := testNet(t, core.NewClientPolicy(), core.NewServerPolicy())
	alice.Send(bob.Addr(), []byte("x"))
	recvWithin(t, bob, 2*time.Second)
	r.Close()
	if r.Received.Load() == 0 || r.Forwarded.Load() == 0 {
		t.Errorf("router stats empty: recv=%d fwd=%d", r.Received.Load(), r.Forwarded.Load())
	}
}

func TestOverlayUnroutableCounted(t *testing.T) {
	r, alice, bob := testNet(t, core.NewClientPolicy(), core.NewServerPolicy())
	_ = bob
	alice.Send(packet.AddrFrom(99, 9, 9, 9), []byte("void"))
	time.Sleep(200 * time.Millisecond)
	r.Close()
	if r.Unroutable.Load() == 0 {
		t.Error("unroutable packet not counted")
	}
}

func TestOverlayCloseIdempotent(t *testing.T) {
	r, alice, _ := testNet(t, core.NewClientPolicy(), core.NewServerPolicy())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	alice.Close()
	if err := alice.Send(1, []byte("x")); err == nil {
		t.Error("Send after Close should error")
	}
}

func TestWorkloadKindsForward(t *testing.T) {
	for _, kind := range Kinds {
		w := NewWorkload(kind)
		// Capture time after the build: capabilities must never be
		// validated against a clock earlier than their mint time.
		now := tvatime.WallClock{}.Now()
		for i := 0; i < 100; i++ {
			if !w.ForwardOne(now) {
				t.Errorf("%v: packet %d demoted/dropped in its own workload", kind, i)
				break
			}
		}
	}
}

func TestWorkloadMissStaysMiss(t *testing.T) {
	// The no-entry workload must keep exercising the validation path:
	// router misses should keep pace with processed packets.
	w := NewWorkload(KindRegularNoEntry)
	now := tvatime.WallClock{}.Now()
	const n = 5000
	for i := 0; i < n; i++ {
		w.ForwardOne(now)
	}
	if hits := w.Router.Stats.RegularHit; hits > n/100 {
		t.Errorf("no-entry workload produced %d cache hits of %d", hits, n)
	}
	if miss := w.Router.Stats.RegularMiss; miss < n*9/10 {
		t.Errorf("no-entry workload validated only %d of %d", miss, n)
	}
}

func TestWorkloadHitStaysHit(t *testing.T) {
	w := NewWorkload(KindRegularWithEntry)
	now := tvatime.WallClock{}.Now()
	const n = 5000
	for i := 0; i < n; i++ {
		w.ForwardOne(now)
	}
	if hits := w.Router.Stats.RegularHit; hits < n {
		t.Errorf("with-entry workload hit only %d of %d", hits, n)
	}
}

func TestMeasureForwardingReportsRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	w := NewWorkload(KindRegularWithEntry)
	out := MeasureForwarding(w, 20_000, 200*time.Millisecond)
	if out < 5_000 {
		t.Errorf("output rate %.0f pps; expected at least 5k on any hardware", out)
	}
	if out > 25_000 {
		t.Errorf("output rate %.0f pps exceeds offered 20k input", out)
	}
}
