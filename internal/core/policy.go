// Destination authorization policies (paper §3.3). Policies decide
// whether to grant a request and with what fine-grained authorization
// (N bytes over T seconds). The paper argues two simple policies cover
// the extremes: a client that only accepts responses to its own
// requests, and a public server that grants everyone a default
// allowance and blacklists senders that misbehave.
package core

import (
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// Policy authorizes inbound senders. Implementations are
// single-threaded with their owning shim.
type Policy interface {
	// Authorize decides whether to grant src and returns the grant's
	// N (KB) and T (seconds).
	Authorize(src packet.Addr, now tvatime.Time) (nkb uint16, tsec uint8, ok bool)
}

// OutboundAware is implemented by policies that key decisions off the
// host's own outgoing requests (the client policy). The shim notifies
// it whenever a request is sent.
type OutboundAware interface {
	NoteOutboundRequest(dst packet.Addr, now tvatime.Time)
}

// DefaultGrantKB and DefaultGrantTSec are a public server's default
// allowance: enough for typical request/response exchanges while
// bounding the damage of a wrong decision (§3.5's 32KB/10s example is
// the evaluation's setting; servers may choose larger).
const (
	DefaultGrantKB   = 32
	DefaultGrantTSec = 10
)

// ClientPolicy implements the firewall-like client behaviour: accept a
// request only if it matches a recent outgoing request to that host
// (e.g. a capability request on a TCP SYN/ACK matching our SYN).
type ClientPolicy struct {
	// GrantKB/GrantTSec are the authorization returned to accepted
	// peers (zero values select the defaults).
	GrantKB   uint16
	GrantTSec uint8
	// Window is how long an outgoing request stays matchable
	// (default 30s).
	Window tvatime.Duration

	pending map[packet.Addr]tvatime.Time
}

// NewClientPolicy returns a client policy with default parameters.
func NewClientPolicy() *ClientPolicy {
	return &ClientPolicy{pending: make(map[packet.Addr]tvatime.Time)}
}

// NoteOutboundRequest implements OutboundAware.
func (p *ClientPolicy) NoteOutboundRequest(dst packet.Addr, now tvatime.Time) {
	if p.pending == nil {
		p.pending = make(map[packet.Addr]tvatime.Time)
	}
	p.pending[dst] = now
}

// Authorize implements Policy.
func (p *ClientPolicy) Authorize(src packet.Addr, now tvatime.Time) (uint16, uint8, bool) {
	window := p.Window
	if window <= 0 {
		window = 30 * tvatime.Second
	}
	at, ok := p.pending[src]
	if !ok || now.Sub(at) > window {
		return 0, 0, false
	}
	nkb, tsec := p.GrantKB, p.GrantTSec
	if nkb == 0 {
		nkb = DefaultGrantKB
	}
	if tsec == 0 {
		tsec = DefaultGrantTSec
	}
	return nkb, tsec, true
}

// ServerPolicy implements the public-server behaviour: grant every
// first request a default allowance; blacklist senders reported as
// misbehaving (flooding, unexpected traffic) so their capabilities
// simply run out (§3.3: "misbehaving senders are quickly contained").
type ServerPolicy struct {
	GrantKB   uint16
	GrantTSec uint8
	// BlacklistFor is how long a misbehaving source stays refused
	// (zero = forever).
	BlacklistFor tvatime.Duration

	black map[packet.Addr]tvatime.Time // time of blacklisting
}

// NewServerPolicy returns a server policy granting the default
// allowance.
func NewServerPolicy() *ServerPolicy {
	return &ServerPolicy{black: make(map[packet.Addr]tvatime.Time)}
}

// Authorize implements Policy.
func (p *ServerPolicy) Authorize(src packet.Addr, now tvatime.Time) (uint16, uint8, bool) {
	if at, bad := p.black[src]; bad {
		if p.BlacklistFor > 0 && now.Sub(at) > p.BlacklistFor {
			delete(p.black, src) // parole
		} else {
			return 0, 0, false
		}
	}
	nkb, tsec := p.GrantKB, p.GrantTSec
	if nkb == 0 {
		nkb = DefaultGrantKB
	}
	if tsec == 0 {
		tsec = DefaultGrantTSec
	}
	return nkb, tsec, true
}

// MarkMisbehaving blacklists a source. The detector is the host stack:
// e.g. traffic to a port with no service, raw floods, or protocol
// violations (§3.3 leaves the detector abstract; DESIGN.md §2).
func (p *ServerPolicy) MarkMisbehaving(src packet.Addr, now tvatime.Time) {
	p.black[src] = now
}

// Blacklisted reports whether src is currently refused.
func (p *ServerPolicy) Blacklisted(src packet.Addr) bool {
	_, bad := p.black[src]
	return bad
}

// AllowAllPolicy grants the maximum expressible authorization to
// anyone: the colluder in the authorized-flood attack (§5.3), and
// convenient for examples.
type AllowAllPolicy struct {
	GrantKB   uint16
	GrantTSec uint8
}

// Authorize implements Policy.
func (p *AllowAllPolicy) Authorize(packet.Addr, tvatime.Time) (uint16, uint8, bool) {
	nkb, tsec := p.GrantKB, p.GrantTSec
	if nkb == 0 {
		nkb = packet.MaxNKB
	}
	if tsec == 0 {
		tsec = packet.MaxTSeconds
	}
	return nkb, tsec, true
}

// RefuseAllPolicy refuses everyone (a host that only ever initiates).
type RefuseAllPolicy struct{}

// Authorize implements Policy.
func (RefuseAllPolicy) Authorize(packet.Addr, tvatime.Time) (uint16, uint8, bool) {
	return 0, 0, false
}
