// Package telemetry is the vocabulary every data-path package shares
// for observability: the drop-reason taxonomy that attributes each
// discarded or demoted packet to one cause. Counting is a plain array
// increment, so the forwarding hot path stays allocation-free with
// accounting on. Histograms and time series live in internal/metrics
// and per-packet tracing in internal/trace.
//
// The package sits below every data-path package: it imports nothing,
// never packet/sched/core, so all of those can depend on it without
// cycles.
package telemetry

// DropReason says why a packet died. Every drop site in the router
// pipeline attributes exactly one reason; the set is the union of the
// causes the paper's evaluation distinguishes (Figs. 8-12): capability
// checks (§3.4), demotion (§3.8), the request-channel rate limit and
// per-path request queues (§3.2), per-destination regular queues and
// the flow-cache bound (§3.6, §3.9), the legacy FIFO, host inbox
// overflow in the overlay, and pushback's rate-limit filters.
type DropReason uint8

const (
	// DropNone is the explicit "no reason attributed" zero value. It
	// exists so that a DropReason a programmer forgot to set is
	// distinguishable from the first real reason (cap-invalid was the
	// zero value before PR 3, so an unattributed drop silently counted
	// as a capability failure). It is never a legal argument to a
	// drop-accounting call: the dropreason analyzer (internal/lint)
	// flags any constant-zero DropReason passed to a function.
	DropNone DropReason = iota
	// DropCapInvalid: the capability list failed validation — bad
	// pre-capability MAC, wrong interface secret, malformed pointer.
	DropCapInvalid
	// DropCapExpired: the capability was once valid but its
	// authorization is used up — the expiry passed or the byte budget
	// (N bytes in T seconds, §3.4) is exhausted.
	DropCapExpired
	// DropDemoted: a packet demoted to legacy (§3.8) was dropped from
	// the shared legacy FIFO.
	DropDemoted
	// DropRequestRateLimited: the request-channel token bucket was the
	// bottleneck — a request already selected by DRR could not be sent
	// within its rate ceiling and the backlog behind it overflowed.
	DropRequestRateLimited
	// DropRequestQueueFull: a per-path-identifier request queue (or the
	// request queue-count bound) overflowed.
	DropRequestQueueFull
	// DropRegularQueueFull: a per-destination regular queue overflowed
	// its byte cap.
	DropRegularQueueFull
	// DropLegacyQueueFull: the shared legacy FIFO overflowed with a
	// packet that was legacy to begin with (never demoted).
	DropLegacyQueueFull
	// DropFlowCachePressure: the flow cache (or the per-destination
	// queue bound derived from it, §3.9) had no room, so a packet that
	// should have regular service could not get it.
	DropFlowCachePressure
	// DropInboxOverflow: an overlay host's inbound ring was full.
	DropInboxOverflow
	// DropFilter: a pushback rate-limit filter discarded the packet.
	DropFilter
	// DropLinkLoss: the packet was lost on the wire by a lossy-link
	// impairment model (random loss or duplication-free corruption).
	DropLinkLoss
	// DropLinkDown: the packet was transmitted into (or in flight
	// across) a link that is inside a scheduled down window.
	DropLinkDown
	// DropRouterRestart: the packet was sitting in a router's output
	// queue when the router crashed; the restart flush released it.
	DropRouterRestart

	// NumDropReasons sizes per-router counter arrays.
	NumDropReasons = int(DropRouterRestart) + 1
)

var dropReasonNames = [NumDropReasons]string{
	DropNone:               "none",
	DropCapInvalid:         "cap-invalid",
	DropCapExpired:         "cap-expired",
	DropDemoted:            "demoted",
	DropRequestRateLimited: "request-rate-limited",
	DropRequestQueueFull:   "request-queue-full",
	DropRegularQueueFull:   "regular-queue-full",
	DropLegacyQueueFull:    "legacy-queue-full",
	DropFlowCachePressure:  "flowcache-pressure",
	DropInboxOverflow:      "inbox-overflow",
	DropFilter:             "filter",
	DropLinkLoss:           "link-loss",
	DropLinkDown:           "link-down",
	DropRouterRestart:      "router-restart",
}

// String returns the stable kebab-case name used in JSON/CSV output.
func (r DropReason) String() string {
	if int(r) < NumDropReasons {
		return dropReasonNames[r]
	}
	return "unknown"
}

// DropCounters is a per-router fixed-size counter array, one slot per
// reason. The zero value is ready to use; incrementing is a single
// array store, so it is safe on the allocation-free hot path. It is
// not synchronized — each router/scheduler owns its array and callers
// needing cross-goroutine reads hold their own lock.
type DropCounters [NumDropReasons]uint64

// Inc attributes one dropped packet to reason r.
func (c *DropCounters) Inc(r DropReason) { c[r]++ }

// Add attributes n dropped packets to reason r.
func (c *DropCounters) Add(r DropReason, n uint64) { c[r] += n }

// Get returns the count for reason r.
func (c *DropCounters) Get(r DropReason) uint64 { return c[r] }

// Total returns the sum over all reasons.
func (c *DropCounters) Total() uint64 {
	var t uint64
	for _, n := range c {
		t += n
	}
	return t
}

// Merge adds other's counts into c.
func (c *DropCounters) Merge(other *DropCounters) {
	for i := range c {
		c[i] += other[i]
	}
}
