// Package sched defines the per-link output scheduler interface used by
// the network simulator and the userspace overlay, and the three
// schedulers the evaluation needs: TVA's three-class hierarchy
// (Fig. 2), SIFF's two-level priority queue, and a plain drop-tail FIFO
// for the legacy Internet.
//
// Each scheduler has one enqueue and one dequeue, both burst-shaped.
// The simulator drives them one packet at a time and the overlay a
// whole burst at a time, so both planes run the same queue code. Within
// an EnqueueBatch, packets that share a class and fair-queuing key go
// through the fq bulk paths as one run.
package sched

import (
	"tva/internal/flowstats"
	"tva/internal/fq"
	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// Scheduler is a link output queue. Both queue operations run at a
// single instant (now does not advance within a call), and their
// outcome does not depend on the burst width: enqueueing a burst in
// one call or packet by packet admits and drops the same packets for
// the same reasons, and draining into one large dst or many one-slot
// ones yields the same service order.
type Scheduler interface {
	// EnqueueBatch classifies and stores every occupied slot of b in
	// order. Ownership of every packet leaves the batch: accepted
	// packets belong to the scheduler; each refused one is counted in
	// DropReasons, recorded as LastDropReason, and then handed to
	// onDrop, in order (the caller's drop-accounting + pool-release
	// path; it must not enqueue into this scheduler). All slots are
	// cleared. Returns the number accepted.
	EnqueueBatch(b *packet.Batch, now tvatime.Time, onDrop func(*packet.Packet)) int
	// DequeueBatch fills dst with up to len(dst) packets to transmit.
	// When it returns 0 packets and a non-zero time, a rate-limited
	// class is the only backlog and the link should retry at that time.
	DequeueBatch(dst []*packet.Packet, now tvatime.Time) (int, tvatime.Time)
	// Len returns the number of queued packets.
	Len() int
	// Flush tears the queue state down (router restart, link removal),
	// handing every queued packet — including any internally parked
	// state such as a rate-limiter holdover — to release exactly once,
	// so the owner can attribute the loss and return pooled packets to
	// the pool. Flushed packets are NOT counted as enqueue drops: the
	// scheduler accepted them, the fault discarded them, so the fault's
	// owner accounts them.
	Flush(release func(*packet.Packet))
	// DropReasons exposes the per-reason enqueue drop counters.
	DropReasons() *telemetry.DropCounters
	// LastDropReason reports why the most recently refused packet was
	// dropped.
	LastDropReason() telemetry.DropReason
}

// dropAcct is the drop accounting every scheduler embeds. The drop
// callbacks each constructor hands to the fq bulk paths are built once
// there and end in drop, so EnqueueBatch allocates nothing per burst.
type dropAcct struct {
	// Drops attributes every dropped packet to a reason.
	Drops    telemetry.DropCounters
	lastDrop telemetry.DropReason
	// Flows, when non-nil, receives per-sender drop attribution (may be
	// attached after construction; nil costs one branch per drop).
	Flows *flowstats.Collector

	// onDrop is the caller's callback for the EnqueueBatch in progress.
	onDrop func(*packet.Packet)
	// fifoDrop is the FIFO drop callback the constructor builds.
	fifoDrop func(*packet.Packet)
}

// drop attributes pkt's refusal to r and hands it to the caller.
//
//tva:hotpath
func (a *dropAcct) drop(pkt *packet.Packet, r telemetry.DropReason) {
	a.lastDrop = r
	a.Drops.Inc(r)
	a.Flows.Drop(pkt)
	a.onDrop(pkt)
}

// DropReasons implements Scheduler.
func (a *dropAcct) DropReasons() *telemetry.DropCounters { return &a.Drops }

// LastDropReason implements Scheduler.
func (a *dropAcct) LastDropReason() telemetry.DropReason { return a.lastDrop }

// queueDropReason classifies a FIFO tail-drop by what the packet was:
// demoted packets (§3.8) are reported separately from packets that
// were legacy all along, and request/regular classes map to their
// queue-full reasons.
func queueDropReason(pkt *packet.Packet) telemetry.DropReason {
	if pkt.Hdr != nil && pkt.Hdr.Demoted {
		return telemetry.DropDemoted
	}
	switch {
	case pkt.Class == packet.ClassRequest ||
		(pkt.Hdr != nil && pkt.Hdr.Kind == packet.KindRequest):
		return telemetry.DropRequestQueueFull
	case pkt.Class == packet.ClassRegular:
		return telemetry.DropRegularQueueFull
	default:
		return telemetry.DropLegacyQueueFull
	}
}

// DropTail is a single FIFO for all classes: the legacy Internet
// router, and also host egress queues. Its drops are classified by
// what the packet was, since a shared FIFO has no classes of its own.
type DropTail struct {
	q *fq.FIFO
	dropAcct
}

// NewDropTail returns a FIFO scheduler with the given byte capacity.
func NewDropTail(capBytes int) *DropTail { return newDropTail(fq.NewFIFO(capBytes)) }

// NewDropTailPkts returns a FIFO scheduler bounded by packet count,
// matching ns-2's drop-tail queues (uniform per-packet loss).
func NewDropTailPkts(capPkts int) *DropTail { return newDropTail(fq.NewFIFOCount(capPkts)) }

func newDropTail(q *fq.FIFO) *DropTail {
	s := &DropTail{q: q}
	s.fifoDrop = func(p *packet.Packet) { s.drop(p, queueDropReason(p)) }
	return s
}

// EnqueueBatch implements Scheduler.
//
//tva:hotpath
func (s *DropTail) EnqueueBatch(b *packet.Batch, _ tvatime.Time, onDrop func(*packet.Packet)) int {
	s.onDrop = onDrop
	accepted := s.q.EnqueueBulk(b.Pkts(), s.fifoDrop)
	b.Reset()
	return accepted
}

// DequeueBatch implements Scheduler.
//
//tva:hotpath
func (s *DropTail) DequeueBatch(dst []*packet.Packet, _ tvatime.Time) (int, tvatime.Time) {
	return s.q.DequeueBulk(dst), 0
}

// Len implements Scheduler.
func (s *DropTail) Len() int { return s.q.Len() }

// Flush implements Scheduler.
func (s *DropTail) Flush(release func(*packet.Packet)) { s.q.Flush(release) }

// TVAConfig parameterizes the TVA link scheduler.
type TVAConfig struct {
	// LinkBps is the outgoing link's capacity in bits/second.
	LinkBps int64
	// RequestFraction is the share of the link reserved as the ceiling
	// for request traffic (paper default 5%; the simulations stress
	// the design at 1%).
	RequestFraction float64
	// Quantum is the DRR quantum in bytes for regular traffic (>= MTU).
	Quantum int
	// RequestQueueBytes caps each per-path-identifier request queue.
	RequestQueueBytes int
	// RegularQueueBytes caps each per-destination regular queue.
	RegularQueueBytes int
	// LegacyQueueBytes caps the shared legacy/demoted FIFO.
	LegacyQueueBytes int
	// MaxRequestQueues bounds request queue state (tag space is 16
	// bits; deployments configure something smaller).
	MaxRequestQueues int
	// MaxRegularQueues bounds per-destination queue state (the paper
	// falls back on the flow-cache bound, §3.9).
	MaxRegularQueues int
}

func (c *TVAConfig) fillDefaults() {
	if c.RequestFraction <= 0 {
		c.RequestFraction = 0.05
	}
	if c.Quantum <= 0 {
		c.Quantum = 1500
	}
	if c.RequestQueueBytes <= 0 {
		c.RequestQueueBytes = 8 * 1024
	}
	if c.RegularQueueBytes <= 0 {
		c.RegularQueueBytes = 32 * 1024
	}
	if c.LegacyQueueBytes <= 0 {
		c.LegacyQueueBytes = 32 * 1024
	}
	if c.MaxRequestQueues <= 0 {
		c.MaxRequestQueues = 1 << 16
	}
	if c.MaxRegularQueues <= 0 {
		c.MaxRegularQueues = 1 << 20
	}
}

// requestQuantum is the DRR quantum for the request class. Requests are
// small, so a small quantum keeps the round short and a newly
// backlogged path's request from waiting behind a burst from every
// other path.
const requestQuantum = 256

// TVA is the three-class scheduler of Fig. 2:
//
//   - requests: fair-queued per path identifier, rate-limited to a
//     fixed fraction of the link;
//   - regular (capability-carrying) packets: fair-queued per
//     authorizing destination, using the remaining capacity;
//   - legacy and demoted packets: lowest priority FIFO.
type TVA struct {
	cfg     TVAConfig
	request *fq.DRR
	regular *fq.DRR
	legacy  *fq.FIFO
	bucket  *fq.TokenBucket

	// holdover buffers a request already selected by DRR that is
	// waiting for rate-limit tokens.
	holdover *packet.Packet

	dropAcct
	// Per-class drop callbacks for the DRR bulk paths, built once here
	// so EnqueueBatch allocates nothing per burst.
	reqDropFn func(*packet.Packet, fq.EnqueueResult)
	regDropFn func(*packet.Packet, fq.EnqueueResult)
}

// NewTVA returns a TVA link scheduler. Every drop is attributed:
// request drops to the rate limiter when it is what's backing the
// class up (a holdover is parked waiting for tokens) or to the
// per-path queue bound otherwise; regular drops to the per-destination
// byte cap or, when the queue-count bound (derived from the flow-cache
// size, §3.9) is hit, to flow-cache pressure; legacy drops to demotion
// (§3.8) or plain legacy overflow.
func NewTVA(cfg TVAConfig) *TVA {
	cfg.fillDefaults()
	reqRate := int64(float64(cfg.LinkBps) * cfg.RequestFraction)
	s := &TVA{
		cfg:     cfg,
		request: fq.NewDRR(requestQuantum, cfg.MaxRequestQueues, cfg.RequestQueueBytes),
		regular: fq.NewDRR(cfg.Quantum, cfg.MaxRegularQueues, cfg.RegularQueueBytes),
		legacy:  fq.NewFIFO(cfg.LegacyQueueBytes),
		// Burst of ~3 MTUs keeps the limiter from quantizing small
		// links too harshly while staying near the configured rate.
		bucket: fq.NewTokenBucket(reqRate, 3*cfg.Quantum),
	}
	s.fifoDrop = func(p *packet.Packet) {
		if p.Hdr != nil && p.Hdr.Demoted {
			s.drop(p, telemetry.DropDemoted)
		} else {
			s.drop(p, telemetry.DropLegacyQueueFull)
		}
	}
	s.reqDropFn = func(p *packet.Packet, _ fq.EnqueueResult) {
		if s.holdover != nil {
			s.drop(p, telemetry.DropRequestRateLimited)
		} else {
			s.drop(p, telemetry.DropRequestQueueFull)
		}
	}
	s.regDropFn = func(p *packet.Packet, res fq.EnqueueResult) {
		if res == fq.EnqDropNoQueue {
			s.drop(p, telemetry.DropFlowCachePressure)
		} else {
			s.drop(p, telemetry.DropRegularQueueFull)
		}
	}
	return s
}

// requestKey selects the fair-queuing key for a request: the most
// recent path identifier tag (§3.2). Untagged requests (from a host
// directly attached to this router) share the zero queue.
func requestKey(pkt *packet.Packet) uint64 {
	if pkt.Hdr == nil || len(pkt.Hdr.Request.PathIDs) == 0 {
		return 0
	}
	return uint64(pkt.Hdr.Request.PathIDs[len(pkt.Hdr.Request.PathIDs)-1])
}

// EnqueueBatch implements Scheduler, classifying on pkt.Class
// (assigned by router capability processing). The burst is split into
// maximal runs that share a class and fair-queuing key (path-id tag
// for requests, destination for regular traffic, the one legacy FIFO
// for the rest), and each run goes through the fq bulk path.
//
//tva:hotpath
func (s *TVA) EnqueueBatch(b *packet.Batch, _ tvatime.Time, onDrop func(*packet.Packet)) int {
	s.onDrop = onDrop
	accepted := 0
	pkts := b.Pkts()
	for i := 0; i < len(pkts); {
		pkt := pkts[i]
		if pkt == nil {
			i++
			continue
		}
		j := i + 1
		switch pkt.Class {
		case packet.ClassRequest:
			key := requestKey(pkt)
			for j < len(pkts) && pkts[j] != nil &&
				pkts[j].Class == packet.ClassRequest && requestKey(pkts[j]) == key {
				j++
			}
			accepted += s.request.EnqueueBulk(key, pkts[i:j], s.reqDropFn)
		case packet.ClassRegular:
			for j < len(pkts) && pkts[j] != nil &&
				pkts[j].Class == packet.ClassRegular && pkts[j].Dst == pkt.Dst {
				j++
			}
			accepted += s.regular.EnqueueBulk(uint64(pkt.Dst), pkts[i:j], s.regDropFn)
		default:
			for j < len(pkts) && pkts[j] != nil &&
				pkts[j].Class != packet.ClassRequest && pkts[j].Class != packet.ClassRegular {
				j++
			}
			accepted += s.legacy.EnqueueBulk(pkts[i:j], s.fifoDrop)
		}
		i = j
	}
	b.Reset()
	return accepted
}

// DequeueBatch implements Scheduler: requests while the rate limit
// allows, then regular runs, then legacy. Once the request arm blocks
// at a given now it stays blocked: the token bucket only refills as
// time advances and no request can arrive mid-call, so serving the
// remaining classes in bulk cannot reorder anything relative to
// one-slot calls.
//
//tva:hotpath
func (s *TVA) DequeueBatch(dst []*packet.Packet, now tvatime.Time) (int, tvatime.Time) {
	n := 0
	for n < len(dst) {
		if s.holdover == nil && s.request.Len() > 0 {
			var next [1]*packet.Packet
			s.request.DequeueBulk(next[:])
			s.holdover = next[0]
		}
		if s.holdover == nil || !s.bucket.Allow(s.holdover.Size, now) {
			break
		}
		dst[n] = s.holdover
		s.holdover = nil
		n++
	}
	if n < len(dst) {
		n += s.regular.DequeueBulk(dst[n:])
	}
	if n < len(dst) {
		n += s.legacy.DequeueBulk(dst[n:])
	}
	if n == 0 && s.holdover != nil {
		return 0, s.bucket.When(s.holdover.Size, now)
	}
	return n, 0
}

// Len implements Scheduler.
func (s *TVA) Len() int { return s.RequestBacklog() + s.regular.Len() + s.legacy.Len() }

// Flush implements Scheduler: all three classes and the rate-limiter
// holdover are drained, so a restarted router's link starts empty.
func (s *TVA) Flush(release func(*packet.Packet)) {
	if s.holdover != nil {
		release(s.holdover)
		s.holdover = nil
	}
	s.request.Flush(release)
	s.regular.Flush(release)
	s.legacy.Flush(release)
}

// RequestBacklog returns queued request packets (including a holdover
// parked at the rate limiter). Metrics gauge.
func (s *TVA) RequestBacklog() int {
	n := s.request.Len()
	if s.holdover != nil {
		n++
	}
	return n
}

// RegularBacklog returns queued regular packets. Metrics gauge.
func (s *TVA) RegularBacklog() int { return s.regular.Len() }

// LegacyBacklog returns queued legacy/demoted packets. Metrics gauge.
func (s *TVA) LegacyBacklog() int { return s.legacy.Len() }

// RegularQueues returns the number of live per-destination queues.
func (s *TVA) RegularQueues() int { return s.regular.NumQueues() }

// TokenLevel returns the request rate limiter's token level in bytes.
func (s *TVA) TokenLevel(now tvatime.Time) float64 { return s.bucket.Level(now) }

// SIFF is the SIFF baseline scheduler: authorized (capability-carrying)
// packets in a strict-priority FIFO over everything else; requests are
// "treated as legacy traffic" (paper §5), so they share the low queue
// with legacy packets.
type SIFF struct {
	high *fq.FIFO
	low  *fq.FIFO
	dropAcct
}

// NewSIFF returns a SIFF scheduler with the given per-class packet
// caps (ns-style packet-count queues).
func NewSIFF(highPkts, lowPkts int) *SIFF {
	if highPkts <= 0 {
		highPkts = 100
	}
	if lowPkts <= 0 {
		lowPkts = 50
	}
	s := &SIFF{high: fq.NewFIFOCount(highPkts), low: fq.NewFIFOCount(lowPkts)}
	s.fifoDrop = func(p *packet.Packet) { s.drop(p, queueDropReason(p)) }
	return s
}

// EnqueueBatch implements Scheduler.
//
//tva:hotpath
func (s *SIFF) EnqueueBatch(b *packet.Batch, _ tvatime.Time, onDrop func(*packet.Packet)) int {
	s.onDrop = onDrop
	accepted := 0
	pkts := b.Pkts()
	for i := 0; i < len(pkts); {
		pkt := pkts[i]
		if pkt == nil {
			i++
			continue
		}
		j := i + 1
		if pkt.Class == packet.ClassRegular {
			for j < len(pkts) && pkts[j] != nil && pkts[j].Class == packet.ClassRegular {
				j++
			}
			accepted += s.high.EnqueueBulk(pkts[i:j], s.fifoDrop)
		} else {
			for j < len(pkts) && pkts[j] != nil && pkts[j].Class != packet.ClassRegular {
				j++
			}
			accepted += s.low.EnqueueBulk(pkts[i:j], s.fifoDrop)
		}
		i = j
	}
	b.Reset()
	return accepted
}

// DequeueBatch implements Scheduler.
//
//tva:hotpath
func (s *SIFF) DequeueBatch(dst []*packet.Packet, _ tvatime.Time) (int, tvatime.Time) {
	n := s.high.DequeueBulk(dst)
	if n < len(dst) {
		n += s.low.DequeueBulk(dst[n:])
	}
	return n, 0
}

// Len implements Scheduler.
func (s *SIFF) Len() int { return s.high.Len() + s.low.Len() }

// Flush implements Scheduler.
func (s *SIFF) Flush(release func(*packet.Packet)) {
	s.high.Flush(release)
	s.low.Flush(release)
}
