// Package siff implements the SIFF baseline (Yaar et al. 2004) as the
// paper models it in its ns simulations (§5):
//
//   - capability requests are treated as legacy (low priority) traffic;
//   - routers keep no per-flow state and place no limit on how many
//     bytes a capability forwards;
//   - a capability remains valid until the router secret changes (the
//     evaluation assumes an aggressive 3 s rotation, §5.4) — the
//     destination cannot revoke it sooner;
//   - packets whose capability fails verification are dropped, not
//     demoted;
//   - authorized traffic shares one priority FIFO (no per-destination
//     balancing).
//
// SIFF's real marks are 2 bits per router; we carry 64-bit marks in the
// same header fields as TVA so both schemes exercise identical
// machinery, since none of the reproduced experiments exercises
// brute-forcing of short marks (DESIGN.md §2).
package siff

import (
	"tva/internal/capability"
	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// DefaultSecretPeriod is the evaluation's aggressive SIFF secret
// rotation (§5.4).
const DefaultSecretPeriod = 3 * tvatime.Second

// Marker mints and checks one router's SIFF marks. A mark is a keyed
// hash of the flow's addresses under the router's epoch secret; the
// router accepts the current or previous epoch's mark.
type Marker struct {
	ring *capability.Ring
}

// NewMarker returns a Marker rotating its secret every period
// (DefaultSecretPeriod if zero).
func NewMarker(period tvatime.Duration) *Marker {
	if period <= 0 {
		period = DefaultSecretPeriod
	}
	return &Marker{ring: capability.NewRing(period)}
}

// Mark computes the current-epoch mark for a flow.
func (m *Marker) Mark(src, dst packet.Addr, now tvatime.Time) uint64 {
	e := m.ring.Epoch(now)
	v, _ := m.ring.MAC56(e, e, uint64(src), uint64(dst), 0)
	return v
}

// Check reports whether v is the flow's mark under the current or
// previous epoch secret.
func (m *Marker) Check(src, dst packet.Addr, v uint64, now tvatime.Time) bool {
	e := m.ring.Epoch(now)
	if cur, ok := m.ring.MAC56(e, e, uint64(src), uint64(dst), 0); ok && cur == v {
		return true
	}
	prev, ok := m.ring.MAC56(e, e-1, uint64(src), uint64(dst), 0)
	return ok && prev == v
}

// RouterStats counts SIFF router outcomes.
type RouterStats struct {
	Requests uint64
	Valid    uint64
	Legacy   uint64
}

// Router is one SIFF router's processing state.
type Router struct {
	marker *Marker
	Stats  RouterStats
	// Drops attributes verification drops by reason (a failed or
	// malformed mark is cap-invalid in the shared taxonomy).
	Drops telemetry.DropCounters
}

// Dropped returns the total packets dropped by mark verification.
func (r *Router) Dropped() uint64 { return r.Drops.Total() }

// NewRouter returns a SIFF router.
func NewRouter(secretPeriod tvatime.Duration) *Router {
	return &Router{marker: NewMarker(secretPeriod)}
}

// Marker exposes the router's marker (tests).
func (r *Router) Marker() *Marker { return r.marker }

// Process classifies one packet. Requests are stamped with this
// router's mark and forwarded as legacy traffic; packets with valid
// marks are high-priority; packets with invalid marks are dropped
// (drop=true). Legacy packets pass at low priority.
func (r *Router) Process(pkt *packet.Packet, now tvatime.Time) (class packet.Class, drop bool) {
	h := pkt.Hdr
	if h == nil {
		r.Stats.Legacy++
		pkt.Class = packet.ClassLegacy
		return pkt.Class, false
	}
	switch h.Kind {
	case packet.KindRequest:
		r.Stats.Requests++
		before := h.WireSize()
		if len(h.Request.PreCaps) < packet.MaxCaps {
			h.Request.PreCaps = append(h.Request.PreCaps, r.marker.Mark(pkt.Src, pkt.Dst, now))
		}
		pkt.Size += h.WireSize() - before
		// SIFF gives requests no better treatment than legacy traffic.
		pkt.Class = packet.ClassLegacy
		return pkt.Class, false
	case packet.KindRegular:
		if int(h.Ptr) >= len(h.Caps) {
			r.Drops.Inc(telemetry.DropCapInvalid)
			return packet.ClassLegacy, true
		}
		mark := h.Caps[h.Ptr]
		h.Ptr++
		if !r.marker.Check(pkt.Src, pkt.Dst, mark, now) {
			r.Drops.Inc(telemetry.DropCapInvalid)
			return packet.ClassLegacy, true
		}
		r.Stats.Valid++
		pkt.Class = packet.ClassRegular
		return pkt.Class, false
	default:
		// SIFF has no nonce-only or renewal packets; treat as legacy.
		r.Stats.Legacy++
		pkt.Class = packet.ClassLegacy
		return pkt.Class, false
	}
}
