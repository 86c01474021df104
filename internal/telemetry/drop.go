// Package telemetry is the vocabulary every data-path package shares
// for observability: the drop-reason taxonomy that attributes each
// discarded or demoted packet to one cause, and the power-of-two
// histogram the simulator keeps its delay distributions in. Counting
// is a plain array increment, so the forwarding hot path stays
// allocation-free with accounting on. Time series live in
// internal/metrics and per-packet tracing in internal/trace.
//
// The package sits below every data-path package: it may import only
// the standard library and tvatime, never packet/sched/core, so all of
// those can depend on it without cycles.
package telemetry

import (
	"math"
	"math/bits"

	"tva/internal/tvatime"
)

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

// histBuckets is one bucket per bit position of an int64 nanosecond
// duration, plus a zero bucket: bucket 0 holds d <= 0, bucket i holds
// 2^(i-1) <= d < 2^i. 64 buckets cover every representable duration,
// so Observe never branches on range.
const histBuckets = 64

// Histogram is a fixed-bucket power-of-two (HDR-style) histogram of
// durations, used for queueing delay and end-to-end latency recorded
// in virtual time. Observe is one bits.Len64 plus two array
// increments — no allocation, no floating point — so it can sit on
// the dequeue path of every interface. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64 // total observed nanoseconds
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d tvatime.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketLower returns the inclusive lower bound of bucket i in
// nanoseconds (0 for the zero bucket).
func BucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Observe records one duration.
func (h *Histogram) Observe(d tvatime.Duration) {
	h.counts[bucketOf(d)%histBuckets]++
	h.count++
	h.sum += int64(d)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() tvatime.Duration { return tvatime.Duration(h.sum) }

// Mean returns the average observed duration (0 if empty).
func (h *Histogram) Mean() tvatime.Duration {
	if h.count == 0 {
		return 0
	}
	return tvatime.Duration(h.sum / int64(h.count))
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= histBuckets {
		return 0
	}
	return h.counts[i]
}

// NumBuckets returns the number of buckets.
func (h *Histogram) NumBuckets() int { return histBuckets }

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1):
// the upper edge of the bucket containing that rank. Power-of-two
// buckets make this exact to within a factor of two, which is all the
// time-series plots need.
func (h *Histogram) Quantile(q float64) tvatime.Duration {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, n := range h.counts {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			if i == histBuckets-1 {
				break // upper edge would overflow; clamp to max
			}
			return tvatime.Duration(int64(1) << i) // upper edge
		}
	}
	return tvatime.Duration(math.MaxInt64)
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.count += other.count
	h.sum += other.sum
}
