// Package packet defines the TVA packet model: an IPv4-like outer
// header plus the capability shim header of Fig. 5 (request, regular
// with capabilities, regular with nonce only, renewal; demotion and
// return-info bits; return info carrying either a demotion notification
// or a capability grant).
//
// The same structs serve two consumers: the discrete-event simulator
// passes *Packet values around directly (sizes are computed from
// WireSize so queueing behaviour matches the wire), and the userspace
// overlay marshals them to bytes with Marshal/Unmarshal.
package packet

import (
	"fmt"

	"tva/internal/tvatime"
)

// Addr is a 32-bit network address, formatted like IPv4 dotted quad.
type Addr uint32

// String implements fmt.Stringer.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// AddrFrom builds an Addr from four octets.
func AddrFrom(a, b, c, d byte) Addr {
	return Addr(a)<<24 | Addr(b)<<16 | Addr(c)<<8 | Addr(d)
}

// Proto identifies the payload above the shim (or above IP for legacy
// packets).
type Proto uint8

// Upper protocols used in this reproduction.
const (
	ProtoRaw     Proto = 0 // opaque payload (attack traffic, overlay data)
	ProtoTCP     Proto = 6
	ProtoControl Proto = 252 // bare shim control carrier (return info only)
)

// Kind is the two-bit packet kind from the common header type field.
type Kind uint8

// Packet kinds (Fig. 5, low two bits of the type field).
const (
	KindRequest   Kind = 0 // xx00: request
	KindRegular   Kind = 1 // xx01: regular with capabilities
	KindNonceOnly Kind = 2 // xx10: regular with nonce only
	KindRenewal   Kind = 3 // xx11: renewal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindRegular:
		return "regular"
	case KindNonceOnly:
		return "nonce-only"
	case KindRenewal:
		return "renewal"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Class is the forwarding class a router assigns to a packet after
// capability processing (Fig. 2): rate-limited requests, preferentially
// forwarded regular packets, and low-priority legacy traffic (which
// includes demoted packets).
type Class uint8

// Forwarding classes.
const (
	ClassLegacy Class = iota
	ClassRequest
	ClassRegular
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassLegacy:
		return "legacy"
	case ClassRequest:
		return "request"
	case ClassRegular:
		return "regular"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// PathID is the 16-bit trust-boundary tag routers stamp on requests
// (§3.2); the most recent tag identifies the request fair-queue.
type PathID uint16

// Capability sizes and limits from Fig. 3 and Fig. 5.
const (
	// MaxCaps bounds the number of per-router capability slots a
	// packet can carry (8-bit count field).
	MaxCaps = 255
	// MaxN is the largest byte authorization expressible in the 10-bit
	// N field, in KB units.
	MaxNKB = 1<<10 - 1
	// MaxT is the largest validity period expressible in the 6-bit T
	// field, in seconds. The modulo-256 router timestamp requires
	// T <= 127 for unambiguous comparison; 63 satisfies that.
	MaxTSeconds = 1<<6 - 1
	// NonceMask keeps the low 48 bits, the flow nonce width.
	NonceMask = uint64(1)<<48 - 1
)

// HopStamp is one router's queue-wait report: the router's ID and its
// current output-queue wait estimate in microseconds. Routers append
// one per hop to requests that opt in (RequestHdr.WantHops), and the
// destination echoes the list in return info, giving the sender a
// per-hop latency breakdown of the forward path (tvaping prints it).
type HopStamp struct {
	Router uint8
	WaitUs uint32
}

// RequestHdr is the variable part of a request packet: the path-id and
// pre-capability lists routers fill in on the way to the destination.
// Fig. 5 interleaves (path-id, blank capability) pairs; we keep two
// counted lists because only trust-boundary routers add path-ids while
// every router adds a pre-capability (see DESIGN.md §2).
type RequestHdr struct {
	PathIDs []PathID
	PreCaps []uint64

	// WantHops asks path routers to stamp HopStamps alongside their
	// pre-capabilities. It rides the top bit of the path-id count byte,
	// so requests that do not opt in are wire-identical to the pre-hop
	// format (the simulator's byte accounting is unchanged).
	WantHops bool
	HopWaits []HopStamp
}

// Grant is a destination's authorization: the right to send N bytes
// within T seconds using the per-router capabilities in Caps (§3.5).
type Grant struct {
	NKB  uint16 // authorized bytes, KB units (10 bits on the wire)
	TSec uint8  // validity period, seconds (6 bits on the wire)
	Caps []uint64
}

// N returns the authorized byte count.
func (g Grant) N() int64 { return int64(g.NKB) * 1024 }

// ReturnInfo travels in the reverse direction piggybacked on a packet
// when the return bit of the common header is set: a demotion
// notification, a capability grant, or both.
type ReturnInfo struct {
	DemotionNotice bool
	// DemoteReason/DemoteRouter echo the demoted packet's cause bytes
	// back to the sender (valid only when DemotionNotice is set).
	// DemoteReason is a telemetry.DropReason value kept as a raw byte
	// so packet does not depend on telemetry.
	DemoteReason uint8
	DemoteRouter uint8
	Grant        *Grant
	// Hops echoes the hop stamps collected by a WantHops request back
	// to its sender (empty when the request carried none).
	Hops []HopStamp
}

// CapHdr is the TVA shim header carried by all non-legacy packets.
type CapHdr struct {
	Kind    Kind
	Demoted bool
	// DemoteReason/DemoteRouter are stamped by the router that demotes
	// a packet (§3.8): which check failed (a telemetry.DropReason value
	// as a raw byte) and which router it was. They ride the last two
	// bytes of the demoted wire encoding so the destination can echo
	// them in return info; zero when Demoted is false.
	DemoteReason uint8
	DemoteRouter uint8
	Proto        Proto // upper protocol

	// Request packets (and the renewal part of renewal packets).
	Request RequestHdr

	// Regular, nonce-only and renewal packets.
	Nonce uint64 // 48-bit flow nonce
	NKB   uint16
	TSec  uint8
	Caps  []uint64
	// Ptr is the capability pointer (Fig. 5): the index of the next
	// router's capability in Caps. The sender zeroes it; each
	// capability router on the path advances it.
	Ptr uint8

	// Optional reverse-direction information.
	Return *ReturnInfo

	// scratchRet/scratchGrant back the Return pointer produced by
	// unmarshal: decoding return info reuses them (and scratchGrant's
	// Caps capacity) instead of allocating per packet, the same idiom
	// as the packet-owned scratch header itself. They are valid only
	// until the next decode into this header; Clone detaches them.
	// scratchHops is the same treatment for the echoed hop-stamp list.
	scratchRet   ReturnInfo
	scratchGrant Grant
	scratchHops  []HopStamp
}

// Packet is one packet in flight. Size is the total wire size in bytes
// (outer header + shim + payload) and is what the simulator charges
// against link bandwidth and capability byte counts.
type Packet struct {
	Src, Dst Addr
	TTL      uint8
	Proto    Proto // ProtoShim if Hdr != nil, else the legacy protocol
	Size     int

	// Hdr is the capability shim header; nil for pure legacy packets.
	Hdr *CapHdr

	// Class is the forwarding class assigned by the most recent
	// router's capability processing; hosts leave it at the zero
	// value.
	Class Class

	// Payload carries the upper-layer content: a marshaled byte slice
	// in the overlay, or an in-memory object (e.g. a TCP segment) in
	// the simulator. It may be nil for generated flood traffic whose
	// content does not matter.
	Payload any

	// SentAt is stamped by the sending host shim (virtual time) and
	// EnqueuedAt by each interface at Enqueue; the delay sketches
	// read them at delivery/dequeue. Neither is on the wire.
	SentAt     tvatime.Time
	EnqueuedAt tvatime.Time

	// TraceID is the packet's flight-recorder identity: assigned (from
	// a monotonic counter) the first time the packet is injected into a
	// traced simulation, 0 when untraced. Clones (impairment
	// duplication) share their original's ID. Not on the wire; wiped by
	// the pool reset like every other field.
	TraceID uint64

	// scratch is the packet-owned reusable shim header behind NewHdr
	// and UnmarshalReuse; its slice capacity survives resets so the
	// hot path does not reallocate per packet. pooled marks packets
	// owned by the package pool (see pool.go).
	scratch *CapHdr
	pooled  bool
}

// OuterHdrLen is the size of the IPv4-like outer header.
const OuterHdrLen = 20

// Wire sizes of the shim fields a router appends while forwarding;
// WireSize counts them, and a router grows Packet.Size by them.
const (
	PreCapLen   = 8 // one pre-capability (timestamp, hash)
	PathIDLen   = 2 // one path identifier
	HopStampLen = 5 // one hop stamp (router, wait_us)
	DemoteLen   = 2 // demotion cause: demote reason, demoting router
)

// HdrWireSize returns the marshaled size of the shim header in bytes,
// or 0 if the packet is legacy.
func (p *Packet) HdrWireSize() int {
	if p.Hdr == nil {
		return 0
	}
	return p.Hdr.WireSize()
}

// WireSize returns the marshaled size of the shim header.
func (h *CapHdr) WireSize() int {
	// Common header: 2 bytes (version|type, upper protocol), plus the
	// demotion cause bytes when the demoted bit is set.
	n := 2
	if h.Demoted {
		n += DemoteLen
	}
	switch h.Kind {
	case KindRequest:
		n += requestWireSize(&h.Request)
	case KindNonceOnly:
		n += 6 // 48-bit nonce
	case KindRegular, KindRenewal:
		n += 6 + 2 + 2 + 8*len(h.Caps) // nonce, counts, N|T, caps
		if h.Kind == KindRenewal {
			n += requestWireSize(&h.Request)
		}
	}
	if h.Return != nil {
		n++ // return type byte
		if h.Return.DemotionNotice {
			n += DemoteLen // echoed
		}
		if h.Return.Grant != nil {
			n += 1 + 2 + 8*len(h.Return.Grant.Caps) // count, N|T, caps
		}
		if len(h.Return.Hops) > 0 {
			n += 1 + HopStampLen*len(h.Return.Hops) // count, stamps
		}
	}
	return n
}

func requestWireSize(r *RequestHdr) int {
	n := 2 + PathIDLen*len(r.PathIDs) + PreCapLen*len(r.PreCaps)
	if r.WantHops {
		n += 1 + HopStampLen*len(r.HopWaits) // count, stamps
	}
	return n
}

// NewHdr resets and attaches the packet's reusable shim header,
// allocating it on first use. The header is owned by the packet: a
// pooled packet recycles it on release, so callers must not retain the
// header past the packet's lifetime.
func (p *Packet) NewHdr() *CapHdr {
	if p.scratch == nil {
		//lint:ignore hotpath one-time allocation per packet; the header is recycled across every later reset and decode
		p.scratch = new(CapHdr)
	}
	p.scratch.Reset()
	p.Hdr = p.scratch
	return p.scratch
}

// Reset clears the header for reuse, keeping allocated slice capacity.
func (h *CapHdr) Reset() {
	h.Kind = 0
	h.Demoted = false
	h.DemoteReason = 0
	h.DemoteRouter = 0
	h.Proto = 0
	h.Request.PathIDs = h.Request.PathIDs[:0]
	h.Request.PreCaps = h.Request.PreCaps[:0]
	h.Request.WantHops = false
	h.Request.HopWaits = h.Request.HopWaits[:0]
	h.Nonce = 0
	h.NKB = 0
	h.TSec = 0
	h.Caps = h.Caps[:0]
	h.Ptr = 0
	h.Return = nil
}

// Clone returns a deep copy of the packet (excluding Payload, which is
// shared: payloads are immutable once sent). The copy owns no scratch
// header and does not belong to the packet pool.
func (p *Packet) Clone() *Packet {
	q := *p
	q.scratch = nil
	q.pooled = false
	if p.Hdr != nil {
		q.Hdr = p.Hdr.Clone()
	}
	return &q
}

// Clone returns a deep copy of the header. Copying is what it is for,
// so where a //tva:hotpath walk reaches it (netsim's link-duplication
// fault) each allocation is excused in place.
func (h *CapHdr) Clone() *CapHdr {
	g := *h
	// Detach the decode scratch: the copied slice headers would alias
	// h's backing arrays, which the next decode into h overwrites.
	g.scratchRet = ReturnInfo{}
	g.scratchGrant = Grant{}
	g.scratchHops = nil
	//lint:ignore hotpath deep copy, reached only on cold paths (fault-injected duplicates)
	g.Request.PathIDs = append([]PathID(nil), h.Request.PathIDs...)
	//lint:ignore hotpath deep copy, reached only on cold paths (fault-injected duplicates)
	g.Request.PreCaps = append([]uint64(nil), h.Request.PreCaps...)
	//lint:ignore hotpath deep copy, reached only on cold paths (fault-injected duplicates)
	g.Request.HopWaits = append([]HopStamp(nil), h.Request.HopWaits...)
	//lint:ignore hotpath deep copy, reached only on cold paths (fault-injected duplicates)
	g.Caps = append([]uint64(nil), h.Caps...)
	if h.Return != nil {
		r := *h.Return
		if h.Return.Grant != nil {
			gr := *h.Return.Grant
			//lint:ignore hotpath deep copy, reached only on cold paths (fault-injected duplicates)
			gr.Caps = append([]uint64(nil), h.Return.Grant.Caps...)
			r.Grant = &gr
		}
		//lint:ignore hotpath deep copy, reached only on cold paths (fault-injected duplicates)
		r.Hops = append([]HopStamp(nil), h.Return.Hops...)
		g.Return = &r
	}
	return &g
}

// String implements fmt.Stringer for debugging output.
func (p *Packet) String() string {
	kind := "legacy"
	if p.Hdr != nil {
		kind = p.Hdr.Kind.String()
		if p.Hdr.Demoted {
			kind += "/demoted"
		}
	}
	return fmt.Sprintf("%s %s->%s %dB", kind, p.Src, p.Dst, p.Size)
}
