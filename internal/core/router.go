// Package core implements the TVA protocol engine of paper §4: the
// router capability-processing path (Fig. 6) and the host shim that
// bootstraps, uses, renews and repairs capabilities. Both are
// transport-agnostic: the discrete-event simulator and the userspace
// UDP overlay drive the same code.
package core

import (
	"tva/internal/capability"
	"tva/internal/flowcache"
	"tva/internal/flowstats"
	"tva/internal/packet"
	"tva/internal/pathid"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// RouterConfig parameterizes a TVA capability router.
type RouterConfig struct {
	// Suite selects the hash construction (capability.Crypto or Fast).
	Suite capability.Suite
	// ID identifies the router in demotion notices and trace events
	// (stamped into CapHdr.DemoteRouter, which is one byte).
	ID uint8
	// SecretPeriod is the router-secret rotation period (default 128s).
	SecretPeriod tvatime.Duration
	// CacheEntries bounds flow state (size with flowcache.Bound).
	CacheEntries int
	// TrustBoundary marks the router as a trust-boundary ingress that
	// stamps path identifiers on requests (§3.2).
	TrustBoundary bool
	// Tagger supplies per-interface path identifier tags; required
	// when TrustBoundary is set.
	Tagger *pathid.Tagger
	// MinNKB/MinTSec express the architectural minimum sending rate
	// (N/T)min used to reject authorizations too small to bound state
	// (§3.6). Zero values disable the check.
	MinNKB  uint16
	MinTSec uint8
	// Authority, when non-nil, is used instead of minting fresh
	// secrets. Shard replicas of one logical router must share the
	// capability authority (it is internally locked) and the Tagger so
	// every shard mints and validates identical capabilities and path
	// tags; each replica still owns a private flow cache, keyed by a
	// flow hash that also picks the shard, so no flow's state is split.
	Authority *capability.Authority
}

// RouterStats counts router processing outcomes.
type RouterStats struct {
	Requests    uint64
	RegularHit  uint64 // regular packets matching a cache entry nonce
	RegularMiss uint64 // regular packets validated without an entry
	Renewals    uint64
	Replaced    uint64 // renewed capabilities installed over an entry
	Demoted     uint64
	Legacy      uint64
}

// Router is one TVA capability router's processing state. It is not
// safe for concurrent use; wrap calls in the owner's event loop.
type Router struct {
	cfg      RouterConfig
	auth     *capability.Authority
	cache    *flowcache.Cache
	restarts uint64

	Stats RouterStats
	// Demotions attributes every demotion (the capability router's
	// "drop": the packet loses regular service and takes its chances
	// in the legacy class, §3.8) to the check that failed. The actual
	// discard, if any, happens later at a queue and is counted there.
	Demotions telemetry.DropCounters
	// Tracer, when non-nil, receives one classify event per processed
	// packet. Checked with a single branch so the nil (disabled) case
	// costs nothing on the hot path.
	Tracer telemetry.Tracer
	// Spans, when non-nil, is the flight recorder the router reports
	// capability verdicts and demotions to (one span per processed
	// traced packet, plus one per demotion). Same nil-disabled pattern
	// as Tracer; Record itself is allocation-free.
	Spans *trace.Recorder
	// HopWait, when non-nil, supplies the router's current output-queue
	// wait estimate in microseconds for hop stamps on WantHops requests
	// (the overlay wires its per-port EWMA here). Nil stamps 0.
	HopWait func() uint32
	// Flows, when non-nil, is the bounded-memory per-sender accounting
	// unit this engine feeds: every processed packet is observed (after
	// request stamping, so requests carry the path-id they are keyed
	// by) and every demotion attributed. Same nil-disabled single
	// branch as Tracer; the record path is allocation-free.
	Flows *flowstats.Collector
}

// NewRouter builds a router from cfg.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Suite.NewKeyed == nil {
		cfg.Suite = capability.Crypto
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1 << 16
	}
	if cfg.TrustBoundary && cfg.Tagger == nil {
		cfg.Tagger = pathid.New()
	}
	auth := cfg.Authority
	if auth == nil {
		auth = capability.NewAuthority(cfg.Suite, cfg.SecretPeriod)
	}
	return &Router{
		cfg:   cfg,
		auth:  auth,
		cache: NewAuthorityCache(cfg.CacheEntries),
	}
}

// NewAuthorityCache builds the bounded flow cache (split out so tests
// can size it precisely).
func NewAuthorityCache(entries int) *flowcache.Cache { return flowcache.New(entries) }

// Authority exposes the router's capability authority (for tests and
// the overlay's diagnostics).
func (r *Router) Authority() *capability.Authority { return r.auth }

// Restarts counts Restart calls (crash/reboot cycles).
func (r *Router) Restarts() uint64 { return r.restarts }

// Restart models a router crash and reboot: all soft state — the flow
// cache and, at trust boundaries, the path-identifier tag history — is
// lost, while the capability secrets survive (§3.8 rotates them on a
// slow schedule precisely so that a reboot within a rotation period
// does not invalidate outstanding capabilities; a router that lost its
// secrets would demote every regular packet until T expired). Queue
// state lives with the owning link, so the caller flushes its
// interfaces separately (netsim.Iface.Flush). Flows whose cache
// entries vanished revalidate from the capability lists hosts
// re-attach, or re-request — the recovery path §3.7's host-side cache
// model exists for.
func (r *Router) Restart() {
	r.restarts++
	r.cache.Flush()
	if r.cfg.Tagger != nil {
		r.cfg.Tagger.Rekey(r.restarts)
	}
}

// Cache exposes the router's flow cache.
func (r *Router) Cache() *flowcache.Cache { return r.cache }

// batchCtx carries the per-burst amortization state threaded through
// the shared packet engine: the capability-minter snapshot (one
// secret-rotation check and timestamp derivation per burst). A zero
// batchCtx is a burst of one — Process runs the same engine with a
// fresh context, so the single-packet and batched paths cannot drift
// apart.
type batchCtx struct {
	minter     capability.Minter
	haveMinter bool
}

// burstMinter returns the burst's capability minter, snapshotting it
// from the authority on first use. Valid because a burst is processed
// at a single instant (now does not advance mid-burst).
//
//tva:hotpath
func (r *Router) burstMinter(bc *batchCtx, now tvatime.Time) capability.Minter {
	if !bc.haveMinter {
		bc.minter = r.auth.MinterAt(now)
		bc.haveMinter = true
	}
	return bc.minter
}

// Process runs Fig. 6 for one packet: it stamps pre-capabilities (and,
// at trust boundaries, path identifiers) on requests and valid
// renewals, validates and charges regular packets against the flow
// cache, demotes packets that fail, and assigns the forwarding class.
// inIface is the incoming interface index used for path identifier
// tags. The packet is mutated in place. Process is the burst-of-one
// form of ProcessBatch: both run the same engine.
//
//tva:hotpath
func (r *Router) Process(pkt *packet.Packet, inIface int, now tvatime.Time) packet.Class {
	var bc batchCtx
	return r.process1(pkt, inIface, now, &bc)
}

// ProcessBatch runs Fig. 6 over every occupied slot of b in order,
// recording each packet's forwarding class in the batch's class slots
// (nil slots from Take are skipped). Semantics are packet-for-packet
// identical to calling Process in a loop — same classes, stats,
// demotion counters, trace events, and spans, in the same order — but
// the fixed per-packet costs amortize across the burst: the secret
// snapshot behind pre-capability minting is taken once. inIface
// applies to the whole burst (a batch is filled from one ingress).
//
//tva:hotpath
func (r *Router) ProcessBatch(b *packet.Batch, inIface int, now tvatime.Time) {
	var bc batchCtx
	for i, pkt := range b.Pkts() {
		if pkt == nil {
			continue
		}
		b.SetClass(i, r.process1(pkt, inIface, now, &bc))
	}
}

// process1 is the shared single-packet engine behind Process and
// ProcessBatch.
//
//tva:hotpath
func (r *Router) process1(pkt *packet.Packet, inIface int, now tvatime.Time, bc *batchCtx) packet.Class {
	h := pkt.Hdr
	if h == nil {
		r.Stats.Legacy++
		pkt.Class = packet.ClassLegacy
		r.Flows.Observe(pkt)
		r.trace(pkt, now)
		r.verdict(pkt, now)
		return pkt.Class
	}
	if h.Demoted {
		// Once demoted, a packet stays legacy for the rest of the path
		// (§3.8); it is not re-validated downstream.
		r.Stats.Legacy++
		pkt.Class = packet.ClassLegacy
		r.Flows.Observe(pkt)
		r.trace(pkt, now)
		r.verdict(pkt, now)
		return pkt.Class
	}
	// Header mutation (appended pre-capabilities and path identifiers)
	// grows the packet on the wire; keep Size consistent.
	before := h.WireSize()
	switch h.Kind {
	case packet.KindRequest:
		r.stampRequest(pkt, h, inIface, now, bc)
		pkt.Class = packet.ClassRequest
	default:
		if ok, reason := r.processRegular(pkt, h, inIface, now, bc); ok {
			pkt.Class = packet.ClassRegular
		} else {
			h.Demoted = true
			// Carry the failed check and the demoting router back to
			// the sender (via return info at the destination) so tools
			// like tvaping can name the hop and reason.
			h.DemoteReason = uint8(reason)
			h.DemoteRouter = r.cfg.ID
			r.Stats.Demoted++
			r.Demotions.Inc(reason)
			r.Flows.Demote(pkt)
			pkt.Class = packet.ClassLegacy
			if r.Spans != nil && pkt.TraceID != 0 {
				sp := r.span(pkt, now, trace.EdgeDemote)
				sp.Reason = reason
				r.Spans.Record(sp)
			}
		}
	}
	pkt.Size += h.WireSize() - before
	r.Flows.Observe(pkt)
	r.trace(pkt, now)
	r.verdict(pkt, now)
	return pkt.Class
}

// span builds the router-local flight-recorder span for pkt.
func (r *Router) span(pkt *packet.Packet, now tvatime.Time, edge trace.Edge) trace.Span {
	sp := trace.Span{
		ID:     pkt.TraceID,
		Time:   now,
		Src:    uint32(pkt.Src),
		Dst:    uint32(pkt.Dst),
		Size:   uint32(pkt.Size),
		Hop:    trace.NoHop,
		Edge:   edge,
		Class:  uint8(pkt.Class),
		Router: r.cfg.ID,
	}
	if pkt.Hdr != nil {
		sp.Kind = uint8(pkt.Hdr.Kind) + 1
	}
	return sp
}

// verdict emits the capability-check verdict span (the class the
// packet leaves this router with).
func (r *Router) verdict(pkt *packet.Packet, now tvatime.Time) {
	if r.Spans == nil || pkt.TraceID == 0 {
		return
	}
	r.Spans.Record(r.span(pkt, now, trace.EdgeVerdict))
}

// trace emits a classify event when a tracer is attached.
func (r *Router) trace(pkt *packet.Packet, now tvatime.Time) {
	if r.Tracer == nil {
		return
	}
	ev := telemetry.Event{
		Time:   now,
		Kind:   telemetry.EventClassify,
		Router: int(r.cfg.ID),
		Src:    uint32(pkt.Src),
		Dst:    uint32(pkt.Dst),
		Class:  uint8(pkt.Class),
		Size:   pkt.Size,
	}
	if pkt.Hdr != nil && pkt.Hdr.Demoted {
		ev.Reason = telemetry.DropReason(pkt.Hdr.DemoteReason)
	}
	r.Tracer.Record(ev)
}

// stampRequest adds this router's pre-capability (and path identifier
// at trust boundaries) to a request.
//
//tva:hotpath
func (r *Router) stampRequest(pkt *packet.Packet, h *packet.CapHdr, inIface int, now tvatime.Time, bc *batchCtx) {
	r.Stats.Requests++
	if len(h.Request.PreCaps) < packet.MaxCaps {
		h.Request.PreCaps = append(h.Request.PreCaps, r.burstMinter(bc, now).PreCap(pkt.Src, pkt.Dst))
	}
	if r.cfg.TrustBoundary && len(h.Request.PathIDs) < 255 {
		pathid.Stamp(h, r.cfg.Tagger.ForInterface(inIface))
	}
	r.stampHop(h)
}

// stampHop appends this router's queue-wait report to a request that
// opted into hop stamps (RequestHdr.WantHops). The destination echoes
// the list in return info; tvaping prints the breakdown.
func (r *Router) stampHop(h *packet.CapHdr) {
	if !h.Request.WantHops || len(h.Request.HopWaits) >= 255 {
		return
	}
	var wait uint32
	if r.HopWait != nil {
		wait = r.HopWait()
	}
	h.Request.HopWaits = append(h.Request.HopWaits, packet.HopStamp{Router: r.cfg.ID, WaitUs: wait})
}

// processRegular implements the regular/renewal arm of Fig. 6 and
// reports whether the packet is authorized; when it is not, the
// DropReason names the check that failed:
//
//   - cap-invalid: malformed capability pointer, a failed MAC/secret
//     validation, or an authorization below the architectural (N/T)min;
//   - cap-expired: the authorization is used up — expiry passed or the
//     N-byte budget exhausted (both of §3.5's router checks);
//   - flowcache-pressure: the packet was cryptographically valid but
//     the bounded flow cache could not admit it, or its cache entry is
//     gone (evicted/expired) and it carries only a nonce to revalidate
//     with.
func (r *Router) processRegular(pkt *packet.Packet, h *packet.CapHdr, inIface int, now tvatime.Time, bc *batchCtx) (bool, telemetry.DropReason) {
	// This router's capability, if the packet carries a list: the
	// capability pointer names this router's slot and is advanced
	// unconditionally so downstream routers index their own slot even
	// when this router satisfies the packet from cache (Fig. 5).
	var myCap uint64
	hasCap := false
	if h.Kind == packet.KindRegular || h.Kind == packet.KindRenewal {
		if int(h.Ptr) >= len(h.Caps) {
			return false, telemetry.DropCapInvalid // malformed or more routers than slots
		}
		myCap = h.Caps[h.Ptr]
		h.Ptr++
		hasCap = true
	}

	if r.cfg.MinTSec > 0 && hasCap {
		// Enforce the architectural (N/T)min so attackers cannot force
		// per-flow state at an arbitrarily low rate (§3.6).
		minRate := int64(r.cfg.MinNKB) * 1024 / int64(r.cfg.MinTSec)
		if h.TSec == 0 || int64(h.NKB)*1024/int64(h.TSec) < minRate {
			return false, telemetry.DropCapInvalid
		}
	}

	entry := r.cache.Lookup(pkt.Src, pkt.Dst)
	reason := telemetry.DropFlowCachePressure
	valid := false
	switch {
	case entry != nil && h.Nonce == entry.Nonce:
		// Common case: flow nonce matches the cached validation.
		valid = r.cache.Charge(entry, pkt.Size, now)
		if !valid {
			// Both Charge checks — expiry and the N-byte budget — mean
			// the authorization is used up.
			reason = telemetry.DropCapExpired
		}
		r.Stats.RegularHit++
	case entry != nil && hasCap:
		// Possibly the first packet carrying a renewed capability:
		// validate and, if good, replace the entry (§4.3).
		if r.auth.ValidateCap(pkt.Src, pkt.Dst, myCap, h.NKB, h.TSec, now) {
			expiry := capability.Expiry(myCap, h.TSec, now)
			valid = r.cache.Replace(entry, h.Nonce, myCap, int64(h.NKB)*1024, h.TSec, expiry, pkt.Size, now)
			if valid {
				r.Stats.Replaced++
			} else {
				reason = telemetry.DropCapExpired
			}
		} else {
			reason = telemetry.DropCapInvalid
		}
	case entry == nil && hasCap:
		if r.auth.ValidateCap(pkt.Src, pkt.Dst, myCap, h.NKB, h.TSec, now) {
			expiry := capability.Expiry(myCap, h.TSec, now)
			if !now.Before(expiry) || int64(pkt.Size) > int64(h.NKB)*1024 {
				reason = telemetry.DropCapExpired
			} else {
				key := flowcache.Key{Src: pkt.Src, Dst: pkt.Dst}
				valid = r.cache.Create(key, h.Nonce, myCap, int64(h.NKB)*1024, h.TSec, expiry, pkt.Size, now) != nil
			}
			r.Stats.RegularMiss++
		} else {
			reason = telemetry.DropCapInvalid
		}
	}

	if valid && h.Kind == packet.KindRenewal {
		// Mint a fresh pre-capability into the renewal (§4.3).
		r.Stats.Renewals++
		if len(h.Request.PreCaps) < packet.MaxCaps {
			h.Request.PreCaps = append(h.Request.PreCaps, r.burstMinter(bc, now).PreCap(pkt.Src, pkt.Dst))
		}
		if r.cfg.TrustBoundary && len(h.Request.PathIDs) < 255 {
			pathid.Stamp(h, r.cfg.Tagger.ForInterface(inIface))
		}
		r.stampHop(h)
	}
	if valid {
		return true, telemetry.DropNone
	}
	return false, reason
}
