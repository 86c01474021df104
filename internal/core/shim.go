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
	// RenewAt is the fraction of N (bytes) or T (time) consumed at
	// which the sender starts renewing (default 0.75).
	RenewAt float64
	// CapsOnFirst is how many packets carry the full capability list
	// after a grant before switching to nonce-only (default 1: the
	// first packet seeds every router's cache).
	CapsOnFirst int
	// IdleReattach re-attaches the capability list after this much
	// send silence, in case routers evicted the flow (default 1s):
	// the host-side cache model of §3.7, optimistic variant.
	IdleReattach tvatime.Duration
	// ReattachMinGap rate-limits demotion-triggered re-attachment so a
	// burst of stale demotion notices cannot thrash a fresh grant.
	ReattachMinGap tvatime.Duration
	// AutoReturn emits a standalone packet to carry return information
	// (grants, demotion notices) when no outbound traffic picked it up
	// in the same event (default true). Pure receivers need it.
	AutoReturn bool
	// CollectHops marks outgoing requests with the WantHops wire flag,
	// asking every capability router on the path to stamp its ID and
	// current queue-wait estimate. The destination shim echoes the
	// stamps in return info and LastHopReport exposes them — the data
	// behind tvaping's per-hop breakdown. Off by default: stamps cost
	// five wire bytes per hop.
	CollectHops bool

	// Reliability engine (active only when Shim.After is set): a
	// request or renewal whose answer does not arrive within RetryRTO
	// is retransmitted as a bare knock, with the timeout doubling up to
	// RetryRTOMax, for at most RetryCap attempts per episode. Defaults:
	// 250 ms / 4 s / 8. Lost requests and lost grants both look the
	// same from here — no fresh grant — so one timer covers both.
	RetryRTO    tvatime.Duration
	RetryRTOMax tvatime.Duration
	RetryCap    int
}

func (c ShimConfig) withDefaults() ShimConfig {
	if c.RenewAt <= 0 || c.RenewAt >= 1 {
		c.RenewAt = 0.75
	}
	if c.CapsOnFirst <= 0 {
		c.CapsOnFirst = 1
	}
	if c.IdleReattach <= 0 {
		c.IdleReattach = tvatime.Second
	}
	if c.ReattachMinGap <= 0 {
		c.ReattachMinGap = 100 * tvatime.Millisecond
	}
	if c.RetryRTO <= 0 {
		c.RetryRTO = 250 * tvatime.Millisecond
	}
	if c.RetryRTOMax <= 0 {
		c.RetryRTOMax = 4 * tvatime.Second
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 8
	}
	return c
}

// sendState tracks the shim's authorization toward one destination.
type sendState struct {
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

	// Reliability engine (Shim.After).
	RetriesSent       uint64 // bare knocks sent because no grant answered in time
	RetriesAbandoned  uint64 // episodes that exhausted RetryCap
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
	// proactively at RenewAt of their lifetime even when no traffic is
	// flowing to piggyback the renewal on. Left nil (the overlay, old
	// tests), the shim is exactly as lossy as the network: a lost
	// request stays lost until the upper layer resends.
	After func(d tvatime.Duration, fn func())

	sends      map[packet.Addr]*sendState
	pending    map[packet.Addr]*packet.ReturnInfo
	demotions  map[packet.Addr]Demotion
	retries    map[packet.Addr]*retryState
	hopReports map[packet.Addr][]packet.HopStamp

	Stats ShimStats
}

// retryState is one destination's retransmission episode: armed when a
// request or renewal goes out, disarmed when any grant or refusal
// answers. gen invalidates timers from superseded episodes, so a stale
// closure firing after the answer arrived is a no-op.
type retryState struct {
	gen      uint64
	attempts int
	rto      tvatime.Duration
	waiting  bool
}

// Demotion is the most recent demotion evidence involving a peer: the
// router that cleared the capability bits and its reason, carried in
// the demoted packet's two-byte extension and echoed back in return
// information (§3.8). Diagnostics like tvaping use it to say *where*
// and *why* a path stopped honouring capabilities instead of reporting
// a bare timeout.
type Demotion struct {
	Reason telemetry.DropReason
	Router uint8
	At     tvatime.Time
}

// NewShim builds a host shim for addr with the given authorization
// policy (nil means refuse everything inbound).
func NewShim(addr packet.Addr, policy Policy, clock tvatime.Clock, rng *rand.Rand, cfg ShimConfig) *Shim {
	return &Shim{
		cfg:        cfg.withDefaults(),
		addr:       addr,
		clock:      clock,
		rng:        rng,
		policy:     policy,
		sends:      make(map[packet.Addr]*sendState),
		pending:    make(map[packet.Addr]*packet.ReturnInfo),
		demotions:  make(map[packet.Addr]Demotion),
		retries:    make(map[packet.Addr]*retryState),
		hopReports: make(map[packet.Addr][]packet.HopStamp),
	}
}

// Addr returns the host address.
func (s *Shim) Addr() packet.Addr { return s.addr }

// HasCaps reports whether the shim currently holds a grant toward dst
// (for tests and sender-side diagnostics).
func (s *Shim) HasCaps(dst packet.Addr) bool {
	st := s.sends[dst]
	return st != nil && st.granted
}

// LastDemotion reports the most recent demotion evidence involving
// peer: either a demotion notice echoed back from the receiver (sender
// side) or a demoted packet that arrived here (receiver side).
func (s *Shim) LastDemotion(peer packet.Addr) (Demotion, bool) {
	d, ok := s.demotions[peer]
	return d, ok
}

// LastHopReport returns the most recent per-hop queue-wait stamps
// echoed back from peer (collected by a CollectHops request on its way
// there), ordered first hop to last. The slice is owned by the shim;
// callers must not mutate it.
func (s *Shim) LastHopReport(peer packet.Addr) []packet.HopStamp {
	return s.hopReports[peer]
}

// Send wraps an upper-layer payload toward dst and transmits it. size
// is the payload's wire size in bytes (e.g. seg.WireLen()). Packets
// come from the packet pool; ownership passes to Output, and the
// terminal consumer (drop point or destination) releases them.
func (s *Shim) Send(dst packet.Addr, proto packet.Proto, payload any, size int) {
	now := s.clock.Now()
	pkt := packet.AcquirePacket()
	h := pkt.NewHdr()
	h.Proto = proto
	st := s.sends[dst]

	switch {
	case st == nil || !st.granted:
		s.makeRequest(dst, h, now)
		if proto != packet.ProtoControl {
			// Arm retransmission only for requests something is waiting
			// on. A return-info carrier that doubles as a request is
			// opportunistic: retrying it would have every grant issued
			// to a silent peer spawn a knock storm toward it.
			s.armRetry(dst)
		}
	default:
		s.fillGranted(dst, st, h, size, now)
	}

	// Piggyback any pending return information (§4.1).
	if ret := s.pending[dst]; ret != nil {
		h.Return = ret
		delete(s.pending, dst)
		s.Stats.ReturnsCarried++
	}

	pkt.Src = s.addr
	pkt.Dst = dst
	pkt.TTL = 64
	pkt.Proto = proto
	pkt.Size = packet.OuterHdrLen + h.WireSize() + size
	pkt.Payload = payload
	pkt.SentAt = now

	if st = s.sends[dst]; st != nil && st.granted {
		st.bytesSent += int64(pkt.Size)
		st.lastSend = now
		st.everSent = true
	}
	s.Output(pkt)
}

// pathPreCaps is the pre-capability (and path identifier) list
// capacity preallocated on requests, sized to a typical path length so
// routers appending their stamps do not reallocate per hop.
const pathPreCaps = 8

func (s *Shim) makeRequest(dst packet.Addr, h *packet.CapHdr, now tvatime.Time) {
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
	if oa, ok := s.policy.(OutboundAware); ok {
		oa.NoteOutboundRequest(dst, now)
	}
}

// armRetry starts a retransmission episode toward dst if none is
// pending. It is called for every request and renewal sent, so the
// first send of an episode arms the timer and the rest (TCP's own
// retransmissions, renewals piggybacked on data) leave it alone.
func (s *Shim) armRetry(dst packet.Addr) {
	if s.After == nil {
		return
	}
	rs := s.retries[dst]
	if rs == nil {
		rs = &retryState{}
		s.retries[dst] = rs
	}
	if rs.waiting {
		return
	}
	rs.waiting = true
	rs.attempts = 0
	rs.rto = s.cfg.RetryRTO
	s.scheduleRetry(dst, rs)
}

func (s *Shim) scheduleRetry(dst packet.Addr, rs *retryState) {
	rs.gen++
	gen := rs.gen
	s.After(rs.rto, func() { s.retryFire(dst, gen) })
}

// retryFire retransmits an unanswered request or renewal as a bare
// ProtoRaw knock (a control carrier would skip authorization at the
// receiver) and re-arms with the backed-off timeout. Send rebuilds the
// right header from current state: a fresh request if the grant is
// gone, a renewal if the old grant is still usable.
func (s *Shim) retryFire(dst packet.Addr, gen uint64) {
	rs := s.retries[dst]
	if rs == nil || !rs.waiting || rs.gen != gen {
		return
	}
	if rs.attempts >= s.cfg.RetryCap {
		rs.waiting = false
		s.Stats.RetriesAbandoned++
		return
	}
	rs.attempts++
	rs.rto *= 2
	if rs.rto > s.cfg.RetryRTOMax {
		rs.rto = s.cfg.RetryRTOMax
	}
	s.Stats.RetriesSent++
	s.scheduleRetry(dst, rs)
	s.Send(dst, packet.ProtoRaw, nil, 0)
}

// clearRetry ends the episode: the request or renewal was answered.
func (s *Shim) clearRetry(dst packet.Addr) {
	if rs := s.retries[dst]; rs != nil && rs.waiting {
		rs.waiting = false
		rs.gen++
	}
}

func (s *Shim) fillGranted(dst packet.Addr, st *sendState, h *packet.CapHdr, size int, now tvatime.Time) {
	n := st.n()
	age := now.Sub(st.grantedAt)
	life := tvatime.Duration(st.tsec) * tvatime.Second

	// A dead grant (expired or out of bytes) forces a fresh request.
	if age >= life || st.bytesSent+int64(size)+64 > n {
		s.sends[dst] = nil
		s.Stats.Reacquires++
		s.makeRequest(dst, h, now)
		return
	}

	renew := float64(st.bytesSent) >= s.cfg.RenewAt*float64(n) ||
		age >= tvatime.Duration(s.cfg.RenewAt*float64(life))

	attachCaps := st.capsSent < s.cfg.CapsOnFirst ||
		(st.everSent && now.Sub(st.lastSend) > s.cfg.IdleReattach)

	h.Nonce = st.nonce
	switch {
	case renew:
		h.Kind = packet.KindRenewal
		h.Caps = append(h.Caps[:0], st.caps...)
		h.NKB, h.TSec = st.nkb, st.tsec
		if s.cfg.CollectHops {
			h.Request.WantHops = true
		}
		st.capsSent++
		s.Stats.RenewalsSent++
		if h.Proto != packet.ProtoControl {
			s.armRetry(dst) // same carrier exemption as requests
		}
	case attachCaps:
		h.Kind = packet.KindRegular
		h.Caps = append(h.Caps[:0], st.caps...)
		h.NKB, h.TSec = st.nkb, st.tsec
		st.capsSent++
		s.Stats.RegularSent++
	default:
		h.Kind = packet.KindNonceOnly
		s.Stats.NonceOnlySent++
	}
}

func (st *sendState) n() int64 { return int64(st.nkb) * 1024 }

// pendingFor returns (creating if needed) the return info accumulating
// toward dst.
func (s *Shim) pendingFor(dst packet.Addr) *packet.ReturnInfo {
	r := s.pending[dst]
	if r == nil {
		r = &packet.ReturnInfo{}
		s.pending[dst] = r
	}
	return r
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

	if h.Demoted {
		// Echo the demotion to the sender on the reverse channel
		// (§3.8) so it repairs the path, carrying the demoting router
		// and its reason along.
		s.Stats.DemotionsSeen++
		ret := s.pendingFor(pkt.Src)
		ret.DemotionNotice = true
		ret.DemoteReason = h.DemoteReason
		ret.DemoteRouter = h.DemoteRouter
		s.demotions[pkt.Src] = Demotion{
			Reason: telemetry.DropReason(h.DemoteReason),
			Router: h.DemoteRouter,
			At:     now,
		}
	}

	if h.Return != nil {
		s.applyReturn(pkt.Src, h.Return, now)
	}

	// Echo hop stamps collected on the way here back to the sender
	// (they describe the sender's forward path, which only the sender
	// can act on). They ride the same pending return info as grants.
	if len(h.Request.HopWaits) > 0 &&
		(h.Kind == packet.KindRequest || h.Kind == packet.KindRenewal) {
		ret := s.pendingFor(pkt.Src)
		ret.Hops = append(ret.Hops[:0], h.Request.HopWaits...)
	}

	// Authorization decisions for requests and (valid, undemoted)
	// renewals that carry fresh pre-capabilities. Pure control
	// carriers never trigger authorization: answering them could
	// ping-pong refusal carriers between two shims through the
	// rate-limited request channel indefinitely.
	if !h.Demoted && h.Proto != packet.ProtoControl && len(h.Request.PreCaps) > 0 &&
		(h.Kind == packet.KindRequest || h.Kind == packet.KindRenewal) {
		s.authorize(pkt.Src, h, now)
	}

	if s.Deliver != nil && h.Proto != packet.ProtoControl {
		s.Deliver(pkt.Src, h.Proto, pkt.Payload, pkt.Size, h.Demoted)
	}

	// If the upper layer produced no reverse traffic to piggyback the
	// return info on, emit a bare carrier packet. Refusals (empty
	// grants) are not worth a packet of their own: the refused sender
	// simply times out, and answering every refused request would let
	// attackers solicit carrier traffic.
	if s.cfg.AutoReturn {
		if ret := s.pending[pkt.Src]; ret != nil &&
			((ret.Grant != nil && len(ret.Grant.Caps) > 0) || ret.DemotionNotice) {
			s.Stats.AutoReturns++
			s.Send(pkt.Src, packet.ProtoControl, nil, 0)
		}
	}
}

func (s *Shim) applyReturn(src packet.Addr, ret *packet.ReturnInfo, now tvatime.Time) {
	if len(ret.Hops) > 0 {
		// Copy: ret aliases the decoded packet's scratch storage.
		s.hopReports[src] = append(s.hopReports[src][:0], ret.Hops...)
	}
	if ret.Grant != nil {
		if len(ret.Grant.Caps) == 0 {
			// An empty capability list is an explicit refusal (§4.2).
			// An answer all the same: retrying a refused request would
			// just be unwanted traffic.
			s.Stats.Refusals++
			s.clearRetry(src)
			return
		}
		s.Stats.GrantsReceived++
		s.clearRetry(src)
		st := &sendState{
			granted:   true,
			nonce:     s.rng.Uint64() & packet.NonceMask,
			caps:      append([]uint64(nil), ret.Grant.Caps...),
			nkb:       ret.Grant.NKB,
			tsec:      ret.Grant.TSec,
			grantedAt: now,
		}
		s.sends[src] = st
		s.scheduleProactiveRenew(src, st)
	}
	if ret.DemotionNotice {
		s.demotions[src] = Demotion{
			Reason: telemetry.DropReason(ret.DemoteReason),
			Router: ret.DemoteRouter,
			At:     now,
		}
		s.repair(src, now)
	}
}

// scheduleProactiveRenew arms a one-shot timer at RenewAt of the
// grant's lifetime. A busy flow renews through its own data packets
// long before the timer fires (the grant has usually been superseded,
// making the closure a no-op); the timer exists for flows idle or slow
// enough that no data packet crosses the renewal threshold before T
// runs out — without it, such a flow's next send after expiry falls
// all the way back to a request through the contended request channel.
func (s *Shim) scheduleProactiveRenew(dst packet.Addr, st *sendState) {
	if s.After == nil {
		return
	}
	life := tvatime.Duration(st.tsec) * tvatime.Second
	s.After(tvatime.Duration(s.cfg.RenewAt*float64(life)), func() {
		if cur := s.sends[dst]; cur != st || !cur.granted {
			return // superseded or torn down; a newer grant has its own timer
		}
		if !st.everSent || s.clock.Now().Sub(st.lastSend) >= s.cfg.IdleReattach {
			// The flow has gone quiet (or never spoke): renewing would
			// keep dead authorizations alive indefinitely — 100 finished
			// attackers re-knocking every period. Let an idle flow's
			// next send fall back to a request instead.
			return
		}
		s.Stats.ProactiveRenewals++
		// A bare knock: fillGranted sees age >= RenewAt*life and builds
		// the renewal (or a fresh request if the grant died meanwhile).
		s.Send(dst, packet.ProtoRaw, nil, 0)
	})
}

// repair responds to a demotion echo: first re-attach the capability
// list so routers can rebuild cache state; if notices keep coming,
// fall back to a fresh request (§3.8).
func (s *Shim) repair(src packet.Addr, now tvatime.Time) {
	st := s.sends[src]
	if st == nil || !st.granted {
		return // already re-acquiring
	}
	if now.Sub(st.grantedAt) < s.cfg.ReattachMinGap {
		return // notices about packets that predate the fresh grant
	}
	if st.lastRepair == 0 || now.Sub(st.lastRepair) > s.cfg.ReattachMinGap {
		st.capsSent = 0 // re-attach caps on next packets
		st.lastRepair = now
		s.Stats.Repairs++
		return
	}
	// Re-attachment did not stick: re-acquire from scratch.
	s.sends[src] = nil
	s.Stats.Reacquires++
}

func (s *Shim) authorize(src packet.Addr, h *packet.CapHdr, now tvatime.Time) {
	if s.policy == nil {
		return
	}
	nkb, tsec, ok := s.policy.Authorize(src, now)
	if !ok {
		// Refusal: an empty capability list (§4.2).
		s.pendingFor(src).Grant = &packet.Grant{}
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
	s.pendingFor(src).Grant = &packet.Grant{NKB: nkb, TSec: tsec, Caps: caps}
}
