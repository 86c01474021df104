// Host constructors: each scheme couples a simulator node with a TCP
// stack and (for TVA and SIFF) the scheme's host shim.
package exp

import (
	"tva/internal/core"
	"tva/internal/netsim"
	"tva/internal/packet"
	"tva/internal/siff"
	"tva/internal/tcp"
	"tva/internal/tvatime"
)

// host is one end system in the simulation.
type host struct {
	node  *netsim.Node
	addr  packet.Addr
	stack *tcp.Stack

	// onRaw observes non-TCP payload deliveries (the destination's
	// misbehaviour detector, flood sinks); demoted reports arrival as
	// demoted legacy traffic.
	onRaw func(src packet.Addr, size int, demoted bool)

	// scheme-specific senders; exactly one of these is set for
	// capability schemes, none for plain hosts.
	tvaShim  *core.Shim
	siffShim *siff.Shim

	// sendRaw transmits an opaque payload of the given size toward dst
	// through whatever shim the scheme uses (attack generators).
	sendRaw func(dst packet.Addr, size int)
	// hasCaps reports sender authorization state toward dst (true for
	// schemes without capabilities).
	hasCaps func(dst packet.Addr) bool
	// beforeTransfer, if set, runs before each new user transfer
	// (SIFF re-handshakes per connection).
	beforeTransfer func(dst packet.Addr)
}

func (h *host) deliver(src packet.Addr, proto packet.Proto, payload any, size int, demoted bool) {
	if proto == packet.ProtoTCP {
		if seg, ok := payload.(*tcp.Segment); ok {
			h.stack.Receive(src, seg)
			return
		}
	}
	if h.onRaw != nil {
		h.onRaw(src, size, demoted)
	}
}

// newTCPStack wires a stack whose segments leave through send.
func newTCPStack(sim *netsim.Sim, addr packet.Addr, send func(packet.Addr, *tcp.Segment)) *tcp.Stack {
	return tcp.NewStack(addr, sim, sim.After, send, sim.Rand())
}

// newTVAHost builds a TVA end system with the given authorization
// policy.
func newTVAHost(sim *netsim.Sim, name string, addr packet.Addr, policy core.Policy, cfg Config) *host {
	h := &host{addr: addr, node: sim.NewNode(name)}
	shim := core.NewShim(addr, policy, sim, sim.Rand(), core.ShimConfig{
		AutoReturn: true,
	})
	shim.Output = func(pkt *packet.Packet) { h.node.Send(pkt) }
	// The reliability engine: simulated hosts retransmit unanswered
	// requests/renewals and renew proactively (the overlay leaves this
	// to real deployments' own timers).
	shim.After = sim.After
	shim.Deliver = h.deliver
	h.tvaShim = shim
	h.stack = newTCPStack(sim, addr, func(dst packet.Addr, seg *tcp.Segment) {
		shim.Send(dst, packet.ProtoTCP, seg, seg.WireLen())
	})
	h.sendRaw = func(dst packet.Addr, size int) { shim.Send(dst, packet.ProtoRaw, nil, size) }
	h.hasCaps = shim.HasCaps
	h.node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, _ *netsim.Iface) {
		shim.Receive(pkt)
		packet.Release(pkt)
	})
	return h
}

// siffPolicyAdapter exposes a core.Policy as a binary SIFF policy and
// keeps the client-side outbound matching working.
type siffPolicyAdapter struct{ p core.Policy }

func (a siffPolicyAdapter) Authorize(src packet.Addr, now tvatime.Time) bool {
	if a.p == nil {
		return false
	}
	_, _, ok := a.p.Authorize(src, now)
	return ok
}

// newSIFFHost builds a SIFF end system.
func newSIFFHost(sim *netsim.Sim, name string, addr packet.Addr, policy core.Policy, cfg Config) *host {
	h := &host{addr: addr, node: sim.NewNode(name)}
	shim := siff.NewShim(addr, siffPolicyAdapter{policy}, sim, sim.Rand(), siff.ShimConfig{
		SecretPeriod: cfg.SIFFSecretPeriod,
		AutoReturn:   true,
	})
	shim.Output = func(pkt *packet.Packet) { h.node.Send(pkt) }
	shim.Deliver = h.deliver
	h.siffShim = shim
	h.stack = newTCPStack(sim, addr, func(dst packet.Addr, seg *tcp.Segment) {
		if oa, ok := policy.(core.OutboundAware); ok && !shim.HasCaps(dst) {
			// Mirror the TVA shim's bookkeeping: requests we are about
			// to send keep the client policy's pinhole open.
			oa.NoteOutboundRequest(dst, sim.Now())
		}
		shim.Send(dst, packet.ProtoTCP, seg, seg.WireLen())
	})
	h.sendRaw = func(dst packet.Addr, size int) { shim.Send(dst, packet.ProtoRaw, nil, size) }
	h.hasCaps = shim.HasCaps
	h.beforeTransfer = shim.Forget
	h.node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, _ *netsim.Iface) {
		shim.Receive(pkt)
		packet.Release(pkt)
	})
	return h
}

// newPlainHost builds an end system with no capability layer (legacy
// Internet and pushback schemes).
func newPlainHost(sim *netsim.Sim, name string, addr packet.Addr) *host {
	h := &host{addr: addr, node: sim.NewNode(name)}
	h.stack = newTCPStack(sim, addr, func(dst packet.Addr, seg *tcp.Segment) {
		pkt := packet.AcquirePacket()
		pkt.Src = addr
		pkt.Dst = dst
		pkt.TTL = 64
		pkt.Proto = packet.ProtoTCP
		pkt.Size = packet.OuterHdrLen + seg.WireLen()
		pkt.Payload = seg
		pkt.SentAt = sim.Now()
		h.node.Send(pkt)
	})
	h.sendRaw = func(dst packet.Addr, size int) {
		pkt := packet.AcquirePacket()
		pkt.Src = addr
		pkt.Dst = dst
		pkt.TTL = 64
		pkt.Proto = packet.ProtoRaw
		pkt.Size = packet.OuterHdrLen + size
		pkt.SentAt = sim.Now()
		h.node.Send(pkt)
	}
	h.hasCaps = func(packet.Addr) bool { return true }
	h.node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, _ *netsim.Iface) {
		h.deliver(pkt.Src, pkt.Proto, pkt.Payload, pkt.Size, false)
		packet.Release(pkt)
	})
	return h
}

// newHost dispatches on scheme.
func newHost(sim *netsim.Sim, name string, addr packet.Addr, policy core.Policy, cfg Config) *host {
	switch cfg.Scheme {
	case SchemeTVA:
		return newTVAHost(sim, name, addr, policy, cfg)
	case SchemeSIFF:
		return newSIFFHost(sim, name, addr, policy, cfg)
	default:
		return newPlainHost(sim, name, addr)
	}
}
