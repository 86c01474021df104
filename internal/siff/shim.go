// SIFF host shim: the sender-side of the SIFF handshake. Unlike TVA
// there is no renewal, no flow nonce (every authorized packet carries
// the full mark list), and no demotion signal: invalid packets vanish,
// so the sender falls back to requesting when the path goes silent or
// its marks are older than the secret rotation guarantees.
package siff

import (
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// ShimConfig parameterizes SIFF host behaviour.
type ShimConfig struct {
	// AutoReturn mirrors core.ShimConfig.AutoReturn.
	AutoReturn bool
}

// silenceTimeout re-requests when packets have been sent but nothing
// has been heard from the peer for this long: the sender's only signal
// that its marks died mid-epoch.
const silenceTimeout = tvatime.Second

// peer is the shim's record of one remote address: the marks it
// granted and the return information waiting for a carrier toward it.
// Unlike core.Shim, a grant is believed whether or not a request is
// outstanding: that is SIFF as the paper evaluates it.
type peer struct {
	granted        bool
	caps           []uint64
	grantedAt      tvatime.Time
	heard          bool
	lastHeard      tvatime.Time
	sentSinceHeard int
	pending        *packet.ReturnInfo
}

// Policy mirrors core.Policy but SIFF grants are binary (no N/T).
type Policy interface {
	Authorize(src packet.Addr, now tvatime.Time) (ok bool)
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc func(src packet.Addr, now tvatime.Time) bool

// Authorize implements Policy.
func (f PolicyFunc) Authorize(src packet.Addr, now tvatime.Time) bool { return f(src, now) }

// ShimStats counts shim activity.
type ShimStats struct {
	RequestsSent   uint64
	RegularSent    uint64
	GrantsReceived uint64
	GrantsIssued   uint64
	ReRequests     uint64
}

// Shim is one host's SIFF layer.
type Shim struct {
	cfg    ShimConfig
	addr   packet.Addr
	clock  tvatime.Clock
	policy Policy

	Output  func(pkt *packet.Packet)
	Deliver func(src packet.Addr, proto packet.Proto, payload any, size int, demoted bool)

	peers map[packet.Addr]*peer

	Stats ShimStats
}

// NewShim builds a SIFF host shim.
func NewShim(addr packet.Addr, policy Policy, clock tvatime.Clock, cfg ShimConfig) *Shim {
	return &Shim{
		cfg:    cfg,
		addr:   addr,
		clock:  clock,
		policy: policy,
		peers:  make(map[packet.Addr]*peer),
	}
}

// HasCaps reports whether the shim holds (presumed live) marks for dst.
func (s *Shim) HasCaps(dst packet.Addr) bool {
	p := s.peers[dst]
	return p != nil && p.granted
}

// Send wraps an upper-layer payload toward dst. Packets come from the
// packet pool; ownership passes to Output.
func (s *Shim) Send(dst packet.Addr, proto packet.Proto, payload any, size int) {
	now := s.clock.Now()
	pkt := packet.AcquirePacket()
	h := pkt.NewHdr()
	h.Proto = proto
	p := s.peers[dst]
	if p == nil {
		p = &peer{}
	}

	if p.granted && (now.Sub(p.grantedAt) >= secretPeriod ||
		p.sentSinceHeard > 0 && p.heard && now.Sub(p.lastHeard) > silenceTimeout) {
		p.granted = false // stale or silent
		s.Stats.ReRequests++
	}

	if p.granted {
		h.Kind = packet.KindRegular
		h.Caps = append(h.Caps[:0], p.caps...)
		p.sentSinceHeard++
		s.Stats.RegularSent++
	} else {
		h.Kind = packet.KindRequest
		if cap(h.Request.PreCaps) == 0 {
			h.Request.PreCaps = make([]uint64, 0, 8)
		}
		s.Stats.RequestsSent++
	}

	h.Return, p.pending = p.pending, nil

	pkt.Src = s.addr
	pkt.Dst = dst
	pkt.TTL = 64
	pkt.Proto = proto
	pkt.Size = packet.OuterHdrLen + h.WireSize() + size
	pkt.Payload = payload
	pkt.SentAt = now
	s.Output(pkt)
}

// Receive processes an incoming packet.
func (s *Shim) Receive(pkt *packet.Packet) {
	now := s.clock.Now()
	h := pkt.Hdr
	if h == nil {
		if s.Deliver != nil {
			s.Deliver(pkt.Src, pkt.Proto, pkt.Payload, pkt.Size, false)
		}
		return
	}
	p := s.peers[pkt.Src]
	if p != nil {
		p.heard, p.lastHeard, p.sentSinceHeard = true, now, 0
	}
	if h.Return != nil && h.Return.Grant != nil && len(h.Return.Grant.Caps) > 0 {
		s.Stats.GrantsReceived++
		p = s.record(pkt.Src, p)
		p.granted, p.grantedAt, p.heard, p.lastHeard = true, now, true, now
		p.caps = append(p.caps[:0], h.Return.Grant.Caps...)
	}
	if h.Kind == packet.KindRequest && h.Proto != packet.ProtoControl &&
		len(h.Request.PreCaps) > 0 && s.policy != nil && s.policy.Authorize(pkt.Src, now) {
		s.Stats.GrantsIssued++
		p = s.record(pkt.Src, p)
		p.pending = &packet.ReturnInfo{Grant: &packet.Grant{
			Caps: append([]uint64(nil), h.Request.PreCaps...),
		}}
	}
	if s.Deliver != nil && h.Proto != packet.ProtoControl {
		s.Deliver(pkt.Src, h.Proto, pkt.Payload, pkt.Size, false)
	}
	if s.cfg.AutoReturn && p != nil && p.pending != nil {
		s.Send(pkt.Src, packet.ProtoControl, nil, 0)
	}
}

// record returns p, or a new record for addr when p is nil.
func (s *Shim) record(addr packet.Addr, p *peer) *peer {
	if p == nil {
		p = &peer{}
		s.peers[addr] = p
	}
	return p
}

// Forget drops any marks held toward dst, forcing the next packet to
// re-request. The evaluation uses it to model per-connection SIFF
// handshakes (each transfer's SYN carries a request, matching the
// paper's 1-p^9 completion model in §5.1).
func (s *Shim) Forget(dst packet.Addr) {
	if p := s.peers[dst]; p != nil {
		p.granted = false
	}
}
