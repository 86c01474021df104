// The host shim of paper §4.2: it piggybacks capability requests on
// outgoing packets, converts granted pre-capabilities into packets with
// capability lists and then flow nonces, renews before authorization
// runs out, echoes demotion signals, and repairs the path when told.
package core

import (
	"math/rand"

	"tva/internal/capability"
	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// ShimConfig parameterizes host shim behaviour.
type ShimConfig struct {
	// Suite selects nothing: capability.Crypto is the only
	// construction. The field stays because bench/ sets it.
	Suite capability.Suite
	// AutoReturn emits a standalone packet to carry return information
	// (grants, demotion notices) when no outbound traffic picked it up
	// in the same event. Pure receivers need it.
	AutoReturn bool
	// CollectHops marks outgoing requests with the WantHops wire flag,
	// asking every capability router on the path to stamp its ID and
	// queue-wait estimate; the destination echoes the stamps back and
	// LastHopReport exposes them (tvaping's per-hop breakdown). Off by
	// default: stamps cost five wire bytes per hop.
	CollectHops bool
}

// The shim's timing and renewal policy.
const (
	// renewAt is the fraction of N (bytes) or T (time) consumed at
	// which the sender starts renewing.
	renewAt = 0.75
	// capsOnFirst is how many packets carry the full capability list
	// after a grant before switching to nonce-only: the first packet
	// seeds every router's cache.
	capsOnFirst = 1
	// idleReattach re-attaches the capability list after this much
	// send silence, in case routers evicted the flow: the host-side
	// cache model of §3.7, optimistic variant.
	idleReattach = tvatime.Second
	// reattachMinGap rate-limits demotion-triggered re-attachment so a
	// burst of stale demotion notices cannot thrash a fresh grant.
	reattachMinGap = 100 * tvatime.Millisecond

	// Reliability engine (active only when Shim.After is set): a
	// request or renewal whose answer does not arrive within retryRTO
	// is retransmitted as a bare knock, with the timeout doubling up to
	// retryRTOMax, for at most retryCap attempts per episode. Lost
	// requests and lost grants both look the same from here — no fresh
	// grant — so one timer covers both. Whether or not After is set,
	// an answer is believed only up to answerWindow after the last
	// request or renewal.
	retryRTO     = 250 * tvatime.Millisecond
	retryRTOMax  = 4 * tvatime.Second
	retryCap     = 8
	answerWindow = retryCap * retryRTOMax
)

// ShimStats counts shim activity.
type ShimStats struct {
	RequestsSent   uint64
	RegularSent    uint64
	NonceOnlySent  uint64
	RenewalsSent   uint64
	GrantsReceived uint64
	GrantsIssued   uint64
	Refusals       uint64
	DemotionsSeen  uint64
	Repairs        uint64
	Reacquires     uint64
	ReturnsCarried uint64
	AutoReturns    uint64
	Unsolicited    uint64 // grants and refusals that answered no request or renewal
	PeersEvicted   uint64 // peer records dropped to stay within peerCap

	// Reliability engine (Shim.After).
	RetriesSent       uint64 // bare knocks sent because no grant answered in time
	RetriesAbandoned  uint64 // episodes that exhausted retryCap
	ProactiveRenewals uint64 // renewals initiated by the timer, not by traffic
}

// Shim is one host's TVA layer. Output is the function that hands a
// finished packet to the network (set by the owner before use);
// Deliver receives incoming payloads. Shim is single-threaded.
type Shim struct {
	cfg    ShimConfig
	addr   packet.Addr
	clock  tvatime.Clock
	rng    *rand.Rand
	policy Policy

	// Output transmits a packet (required).
	Output func(pkt *packet.Packet)
	// Deliver hands an incoming payload to the upper layer; demoted
	// reports the packet arrived demoted (optional).
	Deliver func(src packet.Addr, proto packet.Proto, payload any, size int, demoted bool)
	// After, when set, schedules fn after d and turns on the shim's
	// reliability engine: unanswered requests and renewals are
	// retransmitted with exponential backoff, and grants are renewed
	// proactively at renewAt of their lifetime even when no traffic
	// flows. Left nil (the overlay, old tests), a lost request stays
	// lost until the upper layer resends.
	After func(d tvatime.Duration, fn func())

	// peers holds at most peerCap records; receivers and senders are
	// the sentinels of its two eviction lists, oldest first.
	peers              map[packet.Addr]*peer
	receivers, senders peer

	Stats ShimStats
}

// peerCap bounds the peer table. Sources are spoofable, so a full table
// evicts its oldest receive-only record, or else its oldest sender.
const peerCap = 4096

// peer is all the shim knows about one remote address.
type peer struct {
	addr       packet.Addr
	prev, next *peer
	sender     bool // the upper layer has sent to the peer

	grant    grant
	grantGen uint64 // voids proactive-renewal timers of replaced grants

	// unanswered counts requests and renewals sent to the peer and not
	// yet answered; they lapse at answerBy. Any source can claim to be
	// the peer: only an answer is believed.
	unanswered int
	answerBy   tvatime.Time

	// The retransmission episode, armed while rto > 0.
	gen      uint64 // voids the timers of superseded episodes
	attempts int
	rto      tvatime.Duration

	pending  *packet.ReturnInfo // return information awaiting a carrier
	demotion Demotion
	demoted  bool
	hops     []packet.HopStamp
}

// grant is the authorization the peer gave this host (§4.2).
type grant struct {
	granted    bool
	nonce      uint64
	caps       []uint64
	nkb        uint16
	tsec       uint8
	grantedAt  tvatime.Time
	bytesSent  int64
	capsSent   int // packets sent carrying the full list
	everSent   bool
	lastSend   tvatime.Time
	lastRepair tvatime.Time
}

// link appends p to the list whose sentinel is l.
func (l *peer) link(p *peer) {
	p.prev, p.next = l.prev, l
	l.prev.next, l.prev = p, p
}

func (p *peer) unlink() { p.prev.next, p.next.prev = p.next, p.prev }

// Demotion is the most recent demotion evidence involving a peer: the
// router that cleared the capability bits and its reason, carried in
// the demoted packet's two-byte extension and echoed back in return
// information (§3.8). Diagnostics like tvaping use it to say *where*
// and *why* a path stopped honouring capabilities.
type Demotion struct {
	Reason telemetry.DropReason
	Router uint8
	At     tvatime.Time
}

// NewShim builds a host shim for addr with the given authorization
// policy (nil means refuse everything inbound).
func NewShim(addr packet.Addr, policy Policy, clock tvatime.Clock, rng *rand.Rand, cfg ShimConfig) *Shim {
	s := &Shim{cfg: cfg, addr: addr, clock: clock, rng: rng, policy: policy,
		peers: make(map[packet.Addr]*peer)}
	s.receivers.prev, s.receivers.next = &s.receivers, &s.receivers
	s.senders.prev, s.senders.next = &s.senders, &s.senders
	return s
}

// record returns addr's record, adding a receive-only one if there is
// none. A full table first evicts one, whose timers and return
// information die with it.
func (s *Shim) record(addr packet.Addr) *peer {
	if p := s.peers[addr]; p != nil {
		return p
	}
	if len(s.peers) >= peerCap {
		v := s.receivers.next
		if v == &s.receivers {
			v = s.senders.next
		}
		v.unlink()
		delete(s.peers, v.addr)
		v.grant.granted, v.rto, v.pending = false, 0, nil
		s.Stats.PeersEvicted++
	}
	p := &peer{addr: addr}
	s.receivers.link(p)
	s.peers[addr] = p
	return p
}

var noPeer peer // what the accessors read for an address without a record

func (s *Shim) lookup(addr packet.Addr) *peer {
	if p := s.peers[addr]; p != nil {
		return p
	}
	return &noPeer
}

// HasCaps reports whether the shim currently holds a grant toward dst
// (for tests and sender-side diagnostics).
func (s *Shim) HasCaps(dst packet.Addr) bool { return s.lookup(dst).grant.granted }

// LastDemotion reports the most recent demotion evidence involving
// peer: either a demotion notice echoed back from the receiver (sender
// side) or a demoted packet that arrived here (receiver side).
func (s *Shim) LastDemotion(peer packet.Addr) (Demotion, bool) {
	p := s.lookup(peer)
	return p.demotion, p.demoted
}

// LastHopReport returns the most recent per-hop queue-wait stamps
// echoed back from peer (collected by a CollectHops request on its way
// there), first hop first. The slice is owned by the shim.
func (s *Shim) LastHopReport(peer packet.Addr) []packet.HopStamp { return s.lookup(peer).hops }

// Send wraps an upper-layer payload toward dst and transmits it. size
// is the payload's wire size in bytes (e.g. seg.WireLen()). Packets
// come from the packet pool; ownership passes to Output, and the
// terminal consumer (drop point or destination) releases them.
func (s *Shim) Send(dst packet.Addr, proto packet.Proto, payload any, size int) {
	now := s.clock.Now()
	pkt := packet.AcquirePacket()
	h := pkt.NewHdr()
	h.Proto = proto
	p := s.record(dst)
	if proto != packet.ProtoControl && !p.sender {
		p.sender = true
		p.unlink()
		s.senders.link(p)
	}

	if !p.grant.granted {
		s.makeRequest(p, h, now)
		if proto != packet.ProtoControl {
			// A return-info carrier that doubles as a request is not
			// retried: every grant issued to a silent peer would spawn
			// a knock storm toward it.
			s.armRetry(p)
		}
	} else {
		s.fillGranted(p, h, size, now)
	}

	// Piggyback any pending return information (§4.1).
	if p.pending != nil {
		h.Return, p.pending = p.pending, nil
		s.Stats.ReturnsCarried++
	}

	pkt.Src = s.addr
	pkt.Dst = dst
	pkt.TTL = 64
	pkt.Proto = proto
	pkt.Size = packet.OuterHdrLen + h.WireSize() + size
	pkt.Payload = payload
	pkt.SentAt = now

	if g := &p.grant; g.granted {
		g.bytesSent += int64(pkt.Size)
		g.lastSend, g.everSent = now, true
	}
	s.Output(pkt)
}

// pathPreCaps is the pre-capability (and path identifier) list capacity
// preallocated on requests: a typical path, so routers need not grow it.
const pathPreCaps = 8

func (s *Shim) makeRequest(p *peer, h *packet.CapHdr, now tvatime.Time) {
	h.Kind = packet.KindRequest
	if cap(h.Request.PreCaps) == 0 {
		h.Request.PreCaps = make([]uint64, 0, pathPreCaps)
	}
	if cap(h.Request.PathIDs) == 0 {
		h.Request.PathIDs = make([]packet.PathID, 0, pathPreCaps)
	}
	if s.cfg.CollectHops {
		h.Request.WantHops = true
		if cap(h.Request.HopWaits) == 0 {
			h.Request.HopWaits = make([]packet.HopStamp, 0, pathPreCaps)
		}
	}
	s.Stats.RequestsSent++
	s.ask(p, now)
	if oa, ok := s.policy.(OutboundAware); ok {
		oa.NoteOutboundRequest(p.addr, now)
	}
}

// ask counts a request or renewal sent to p, restarting a lapsed count.
// The answer may sit behind a flood in the request channel for seconds,
// so the count lapses only after as long as a whole retry episode.
func (s *Shim) ask(p *peer, now tvatime.Time) {
	if now > p.answerBy {
		p.unanswered = 0
	}
	p.unanswered++
	p.answerBy = now.Add(answerWindow)
}

// armRetry starts a retransmission episode toward p unless one is
// running: TCP's own retransmissions and later renewals join it.
func (s *Shim) armRetry(p *peer) {
	if s.After == nil || p.rto > 0 {
		return
	}
	p.attempts, p.rto = 0, retryRTO
	s.scheduleRetry(p)
}

func (s *Shim) scheduleRetry(p *peer) {
	p.gen++
	gen := p.gen
	s.After(p.rto, func() { s.retryFire(p, gen) })
}

// retryFire retransmits an unanswered request or renewal as a bare
// ProtoRaw knock (a control carrier would skip authorization) and
// re-arms with the backed-off timeout; Send picks renewal or request.
func (s *Shim) retryFire(p *peer, gen uint64) {
	if p.rto == 0 || p.gen != gen {
		return
	}
	if p.attempts >= retryCap {
		p.rto = 0
		s.Stats.RetriesAbandoned++
		return
	}
	p.attempts++
	p.rto = min(2*p.rto, retryRTOMax)
	s.Stats.RetriesSent++
	s.scheduleRetry(p)
	s.Send(p.addr, packet.ProtoRaw, nil, 0)
}

func (s *Shim) fillGranted(p *peer, h *packet.CapHdr, size int, now tvatime.Time) {
	g := &p.grant
	n := int64(g.nkb) * 1024
	age := now.Sub(g.grantedAt)
	life := tvatime.Duration(g.tsec) * tvatime.Second

	// A dead grant (expired or out of bytes) forces a fresh request.
	if age >= life || g.bytesSent+int64(size)+64 > n {
		g.granted = false
		s.Stats.Reacquires++
		s.makeRequest(p, h, now)
		return
	}

	renew := float64(g.bytesSent) >= renewAt*float64(n) ||
		age >= tvatime.Duration(renewAt*float64(life))

	attachCaps := g.capsSent < capsOnFirst ||
		(g.everSent && now.Sub(g.lastSend) > idleReattach)

	h.Nonce = g.nonce
	switch {
	case renew:
		h.Kind = packet.KindRenewal
		h.Caps = append(h.Caps[:0], g.caps...)
		h.NKB, h.TSec = g.nkb, g.tsec
		if s.cfg.CollectHops {
			h.Request.WantHops = true
		}
		g.capsSent++
		s.Stats.RenewalsSent++
		s.ask(p, now)
		if h.Proto != packet.ProtoControl {
			s.armRetry(p) // same carrier exemption as requests
		}
	case attachCaps:
		h.Kind = packet.KindRegular
		h.Caps = append(h.Caps[:0], g.caps...)
		h.NKB, h.TSec = g.nkb, g.tsec
		g.capsSent++
		s.Stats.RegularSent++
	default:
		h.Kind = packet.KindNonceOnly
		s.Stats.NonceOnlySent++
	}
}

// pendingFor returns (creating if needed) the return info toward p.
func pendingFor(p *peer) *packet.ReturnInfo {
	if p.pending == nil {
		p.pending = &packet.ReturnInfo{}
	}
	return p.pending
}

// Receive processes an incoming packet: applies return information,
// answers authorization requests per policy, echoes demotions, and
// delivers the payload upward.
func (s *Shim) Receive(pkt *packet.Packet) {
	now := s.clock.Now()
	h := pkt.Hdr
	if h == nil {
		if s.Deliver != nil {
			s.Deliver(pkt.Src, pkt.Proto, pkt.Payload, pkt.Size, false)
		}
		return
	}
	p := s.record(pkt.Src)

	if h.Demoted {
		// Echo the demotion, with the demoting router and its reason,
		// to the sender on the reverse channel so it repairs (§3.8).
		s.Stats.DemotionsSeen++
		ret := pendingFor(p)
		ret.DemotionNotice = true
		ret.DemoteReason = h.DemoteReason
		ret.DemoteRouter = h.DemoteRouter
		p.demotion, p.demoted = Demotion{Reason: telemetry.DropReason(h.DemoteReason), Router: h.DemoteRouter, At: now}, true
	}

	if h.Return != nil {
		s.applyReturn(p, h.Return, now)
	}

	// Echo hop stamps collected on the way here: they describe the
	// sender's forward path, which only the sender can act on.
	if len(h.Request.HopWaits) > 0 &&
		(h.Kind == packet.KindRequest || h.Kind == packet.KindRenewal) {
		ret := pendingFor(p)
		ret.Hops = append(ret.Hops[:0], h.Request.HopWaits...)
	}

	// Authorize requests and (valid, undemoted) renewals. Control
	// carriers never trigger authorization: answering them could
	// ping-pong refusal carriers between two shims indefinitely.
	if !h.Demoted && h.Proto != packet.ProtoControl && len(h.Request.PreCaps) > 0 &&
		(h.Kind == packet.KindRequest || h.Kind == packet.KindRenewal) {
		s.authorize(p, h, now)
	}

	if s.Deliver != nil && h.Proto != packet.ProtoControl {
		s.Deliver(pkt.Src, h.Proto, pkt.Payload, pkt.Size, h.Demoted)
	}

	// If the upper layer sent nothing to piggyback the return info on,
	// emit a bare carrier. Refusals do not get one: answering every
	// refused request would let attackers solicit carrier traffic.
	if ret := p.pending; s.cfg.AutoReturn && ret != nil &&
		((ret.Grant != nil && len(ret.Grant.Caps) > 0) || ret.DemotionNotice) {
		s.Stats.AutoReturns++
		s.Send(pkt.Src, packet.ProtoControl, nil, 0)
	}
}

// applyReturn applies return information from p. A grant or refusal is
// believed only while p owes an answer, and settles one request.
func (s *Shim) applyReturn(p *peer, ret *packet.ReturnInfo, now tvatime.Time) {
	if len(ret.Hops) > 0 {
		// Copy: ret aliases the decoded packet's scratch storage.
		p.hops = append(p.hops[:0], ret.Hops...)
	}
	switch g := ret.Grant; {
	case g == nil:
	case p.unanswered == 0 || now > p.answerBy:
		s.Stats.Unsolicited++
	case len(g.Caps) == 0:
		// An empty capability list is an explicit refusal (§4.2), and
		// an answer: retrying a refused request is unwanted traffic.
		p.unanswered--
		s.Stats.Refusals++
		s.clearRetry(p)
		return
	default:
		p.unanswered--
		s.Stats.GrantsReceived++
		s.clearRetry(p)
		p.grant = grant{
			granted:   true,
			nonce:     s.rng.Uint64() & packet.NonceMask,
			caps:      append(p.grant.caps[:0], g.Caps...),
			nkb:       g.NKB,
			tsec:      g.TSec,
			grantedAt: now,
		}
		p.grantGen++
		s.scheduleProactiveRenew(p)
	}
	if ret.DemotionNotice {
		p.demotion, p.demoted = Demotion{Reason: telemetry.DropReason(ret.DemoteReason), Router: ret.DemoteRouter, At: now}, true
		s.repair(p, now)
	}
}

// clearRetry ends p's episode: the request or renewal was answered.
func (s *Shim) clearRetry(p *peer) {
	p.rto = 0
	p.gen++
}

// scheduleProactiveRenew arms a one-shot timer at renewAt of the
// grant's lifetime, for flows too idle or slow for a data packet to
// cross the renewal threshold before T runs out (a busy flow renews
// first, and the timer finds its grant superseded).
func (s *Shim) scheduleProactiveRenew(p *peer) {
	if s.After == nil {
		return
	}
	gen, g := p.grantGen, &p.grant
	life := tvatime.Duration(g.tsec) * tvatime.Second
	s.After(tvatime.Duration(renewAt*float64(life)), func() {
		if p.grantGen != gen || !g.granted {
			return // superseded or torn down; a newer grant has its own timer
		}
		if !g.everSent || s.clock.Now().Sub(g.lastSend) >= idleReattach {
			// A quiet flow lets its grant lapse: renewing would keep
			// dead authorizations (finished attackers) alive forever.
			return
		}
		s.Stats.ProactiveRenewals++
		// A bare knock: fillGranted builds the renewal (or a request).
		s.Send(p.addr, packet.ProtoRaw, nil, 0)
	})
}

// repair responds to a demotion echo: first re-attach the capability
// list so routers can rebuild cache state; if notices keep coming,
// fall back to a fresh request (§3.8).
func (s *Shim) repair(p *peer, now tvatime.Time) {
	g := &p.grant
	if !g.granted {
		return // already re-acquiring
	}
	if now.Sub(g.grantedAt) < reattachMinGap {
		return // notices about packets that predate the fresh grant
	}
	if g.lastRepair == 0 || now.Sub(g.lastRepair) > reattachMinGap {
		g.capsSent = 0 // re-attach caps on next packets
		g.lastRepair = now
		s.Stats.Repairs++
		return
	}
	// Re-attachment did not stick: re-acquire from scratch.
	g.granted = false
	s.Stats.Reacquires++
}

func (s *Shim) authorize(p *peer, h *packet.CapHdr, now tvatime.Time) {
	if s.policy == nil {
		return
	}
	nkb, tsec, ok := s.policy.Authorize(p.addr, now)
	if !ok {
		// Refusal: an empty capability list (§4.2).
		pendingFor(p).Grant = &packet.Grant{}
		return
	}
	if tsec > packet.MaxTSeconds {
		tsec = packet.MaxTSeconds
	}
	caps := make([]uint64, len(h.Request.PreCaps))
	for i, pre := range h.Request.PreCaps {
		caps[i] = capability.Crypto.MakeCap(pre, nkb, tsec)
	}
	s.Stats.GrantsIssued++
	pendingFor(p).Grant = &packet.Grant{NKB: nkb, TSec: tsec, Caps: caps}
}
