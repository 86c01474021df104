// Package fq provides the queueing primitives TVA routers compose into
// the link scheduler of Fig. 2: a deficit-round-robin fair queue (used
// per path identifier for requests and per destination for regular
// traffic), a token bucket (the request-channel rate limit), and a
// drop-tail FIFO (legacy traffic, and the entire legacy Internet
// baseline).
package fq

import (
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// DRR is a deficit-round-robin fair queue over dynamically created
// per-key flows. Keys are opaque 64-bit values (a path identifier or a
// destination address). The number of simultaneous queues is bounded
// by MaxQueues; the paper bounds request queues by the 16-bit tag space
// and regular queues by the flow-cache size (§3.2, §3.9).
type DRR struct {
	quantum   int // bytes added per round; >= max packet size for O(1)
	maxQueues int
	perQBytes int // per-queue byte cap

	queues map[uint64]*flowq
	// Active ring (doubly linked); head is the next queue to serve.
	head *flowq
	// free holds retired flowqs (linked through next) for reuse, so
	// flow churn does not allocate a queue per new key.
	free *flowq

	bytes int
	pkts  int
}

// EnqueueResult says which bound refused a packet handed to
// DRR.EnqueueBulk's drop callback. Drop accounting lives with the
// scheduler that owns the DRR (it knows the traffic class and so the
// telemetry.DropReason); the DRR only reports which bound was hit.
type EnqueueResult uint8

const (
	// EnqOK: the packet was queued.
	EnqOK EnqueueResult = iota
	// EnqDropQueueFull: the per-queue byte cap would be exceeded.
	EnqDropQueueFull
	// EnqDropNoQueue: the queue-count bound prevents creating a queue
	// for a new key (tag space for requests, flow-cache bound for
	// regular traffic).
	EnqDropNoQueue
)

// window is the packet buffer behind both queue types, a sliding
// window over pkts: [head:len) are queued. Taking packets advances
// head instead of reslicing from the front, so the backing array's
// capacity is reused once the window drains instead of being
// reallocated on the next burst.
type window struct {
	pkts []*packet.Packet
	head int
}

func (w *window) len() int { return len(w.pkts) - w.head }

// reserve prepares the slot array to absorb n more packets with at
// most one compaction-or-grow: the queued window slides to the front
// only when appending would otherwise outgrow the backing array.
func (w *window) reserve(n int) {
	if w.head > 0 && len(w.pkts)+n > cap(w.pkts) {
		m := copy(w.pkts, w.pkts[w.head:])
		clear(w.pkts[m:])
		w.pkts = w.pkts[:m]
		w.head = 0
	}
}

// take moves the first len(dst) queued packets into dst and returns
// their bytes.
func (w *window) take(dst []*packet.Packet) (bytes int) {
	pkts, head := w.pkts, w.head
	for i := range dst {
		pkt := pkts[head+i]
		pkts[head+i] = nil
		dst[i] = pkt
		bytes += pkt.Size
	}
	if head += len(dst); head == len(pkts) {
		w.pkts, w.head = pkts[:0], 0
	} else {
		w.head = head
	}
	return bytes
}

// flush hands every queued packet to release, in order, and empties
// the window.
func (w *window) flush(release func(*packet.Packet)) {
	for _, pkt := range w.pkts[w.head:] {
		release(pkt)
	}
	clear(w.pkts)
	w.pkts = w.pkts[:0]
	w.head = 0
}

// flowq is one key's queue in a DRR.
type flowq struct {
	window
	key        uint64
	byteCount  int
	deficit    int
	next, prev *flowq
}

// NewDRR returns a DRR scheduler. quantum should be at least the MTU;
// maxQueues bounds queue-state (0 means unlimited); perQueueBytes caps
// each queue's backlog.
func NewDRR(quantum, maxQueues, perQueueBytes int) *DRR {
	if quantum <= 0 {
		quantum = 1500
	}
	if perQueueBytes <= 0 {
		perQueueBytes = 64 * 1024
	}
	return &DRR{
		quantum:   quantum,
		maxQueues: maxQueues,
		perQBytes: perQueueBytes,
		queues:    make(map[uint64]*flowq),
	}
}

// Len returns the number of queued packets.
func (d *DRR) Len() int { return d.pkts }

// Bytes returns the number of queued bytes.
func (d *DRR) Bytes() int { return d.bytes }

// NumQueues returns the number of live per-key queues.
func (d *DRR) NumQueues() int { return len(d.queues) }

// EnqueueBulk adds a run of packets for one key in order, each
// admitted unless it would push the key's queue past its byte cap.
// The fixed costs are paid once per run: one map probe, one ring
// insertion, one slot-array reservation, and one update of the
// aggregate byte/packet bookkeeping. A new key's queue is created only
// once a packet is admitted, so a run the byte cap refuses entirely
// leaves no queue behind. Refused packets are handed to drop with the
// bound that refused them (drop may be nil). It returns the number
// accepted. Nil slots (batch Take) are skipped.
//
//tva:hotpath
func (d *DRR) EnqueueBulk(key uint64, pkts []*packet.Packet, drop func(*packet.Packet, EnqueueResult)) int {
	q := d.queues[key]
	fresh := q == nil
	if fresh {
		if d.maxQueues > 0 && len(d.queues) >= d.maxQueues {
			if drop != nil {
				for _, pkt := range pkts {
					if pkt != nil {
						drop(pkt, EnqDropNoQueue)
					}
				}
			}
			return 0
		}
		q = d.newFlowq(key)
	}
	q.reserve(len(pkts))
	accepted, bytes := 0, 0
	for _, pkt := range pkts {
		if pkt == nil {
			continue
		}
		// The byte-cap check must see the bytes already accepted from
		// this run.
		if q.byteCount+bytes+pkt.Size > d.perQBytes {
			if drop != nil {
				drop(pkt, EnqDropQueueFull)
			}
			continue
		}
		q.pkts = append(q.pkts, pkt)
		bytes += pkt.Size
		accepted++
	}
	if accepted == 0 {
		if fresh {
			d.retire(q)
		}
		return 0
	}
	if fresh {
		d.queues[key] = q
	}
	q.byteCount += bytes
	d.bytes += bytes
	d.pkts += accepted
	if q.next == nil { // not in the active ring
		d.ringPush(q)
	}
	return accepted
}

// DequeueBulk fills dst with up to len(dst) packets under deficit
// round robin and returns the number written. Each visit to a queue
// whose deficit cannot cover its head packet tops the deficit up by
// one quantum and rotates, so with quantum >= MTU every queue sends at
// most one packet per round and long-run throughput is proportional to
// rounds (fair in bytes). A queue's deficit-covered run leaves with one
// bookkeeping update; a full dst leaves the queue at the ring head with
// its deficit, so the next call resumes exactly where this one stopped,
// and filling one slot per call walks the same order as filling many.
//
//tva:hotpath
func (d *DRR) DequeueBulk(dst []*packet.Packet) int {
	n := 0
	for n < len(dst) && d.head != nil {
		q := d.head
		// Maximal run the queue's deficit covers.
		run, bytes := 0, 0
		for n+run < len(dst) && q.head+run < len(q.pkts) {
			sz := q.pkts[q.head+run].Size
			if bytes+sz > q.deficit {
				break
			}
			bytes += sz
			run++
		}
		if run > 0 {
			q.take(dst[n : n+run])
			q.deficit -= bytes
			q.byteCount -= bytes
			d.bytes -= bytes
			d.pkts -= run
			n += run
		}
		switch {
		case q.len() == 0:
			// Queue drained: retire it.
			d.ringRemove(q)
			delete(d.queues, q.key)
			d.retire(q)
		case n == len(dst):
			// dst is full; the queue keeps its deficit and stays at the
			// ring head so the next call resumes exactly here.
		default:
			// Deficit exhausted: top up and rotate.
			q.deficit += d.quantum
			d.head = q.next
		}
	}
	return n
}

// newFlowq reuses a retired flowq from the free list, or allocates.
func (d *DRR) newFlowq(key uint64) *flowq {
	if q := d.free; q != nil {
		d.free = q.next
		q.next = nil
		q.key = key
		return q
	}
	//lint:ignore hotpath allocates only on a free-list miss; steady-state flow churn reuses retired flowqs
	return &flowq{key: key}
}

// retire pushes an empty flowq, already out of the ring and the index,
// onto the free list.
func (d *DRR) retire(q *flowq) {
	q.deficit = 0
	q.next = d.free
	d.free = q
}

// Flush drains every queue, handing each packet to release (the
// caller's drop-accounting + pool-release path), and retires the
// emptied flowqs to the free list. Used by router restart and
// link-teardown paths; not on the hot path.
func (d *DRR) Flush(release func(*packet.Packet)) {
	for d.head != nil {
		q := d.head
		q.flush(release)
		q.byteCount = 0
		d.ringRemove(q)
		delete(d.queues, q.key)
		d.retire(q)
	}
	d.bytes = 0
	d.pkts = 0
}

func (d *DRR) ringPush(q *flowq) {
	if d.head == nil {
		q.next, q.prev = q, q
		d.head = q
		return
	}
	tail := d.head.prev
	tail.next = q
	q.prev = tail
	q.next = d.head
	d.head.prev = q
}

func (d *DRR) ringRemove(q *flowq) {
	if q.next == q {
		d.head = nil
	} else {
		q.prev.next = q.next
		q.next.prev = q.prev
		if d.head == q {
			d.head = q.next
		}
	}
	q.next, q.prev = nil, nil
}

// FIFO is a drop-tail queue bounded in bytes, packets, or both.
type FIFO struct {
	window
	byteCap  int // 0 = unlimited
	pktCap   int // 0 = unlimited
	curBytes int
}

// NewFIFO returns a FIFO holding at most capBytes of packets.
func NewFIFO(capBytes int) *FIFO {
	if capBytes <= 0 {
		capBytes = 64 * 1024
	}
	return &FIFO{byteCap: capBytes}
}

// NewFIFOCount returns a FIFO holding at most capPkts packets,
// regardless of size — the classic ns-2 drop-tail queue, under which
// per-packet loss is uniform across packet sizes.
func NewFIFOCount(capPkts int) *FIFO {
	if capPkts <= 0 {
		capPkts = 50
	}
	return &FIFO{pktCap: capPkts}
}

// Len returns the queued packet count.
func (f *FIFO) Len() int { return f.len() }

// Bytes returns the queued byte count.
func (f *FIFO) Bytes() int { return f.curBytes }

// EnqueueBulk appends a run of packets in order, tail-dropping each
// one the byte or packet cap refuses, with one compaction-or-grow
// decision for the whole run. Refused packets are handed to drop
// (which may be nil); the caller attributes the drop (the FIFO doesn't
// know the traffic class). Nil slots are skipped. Returns the number
// accepted.
//
//tva:hotpath
func (f *FIFO) EnqueueBulk(pkts []*packet.Packet, drop func(*packet.Packet)) int {
	f.reserve(len(pkts))
	accepted := 0
	for _, pkt := range pkts {
		if pkt == nil {
			continue
		}
		if (f.byteCap > 0 && f.curBytes+pkt.Size > f.byteCap) ||
			(f.pktCap > 0 && f.len() >= f.pktCap) {
			if drop != nil {
				drop(pkt)
			}
			continue
		}
		f.pkts = append(f.pkts, pkt)
		f.curBytes += pkt.Size
		accepted++
	}
	return accepted
}

// DequeueBulk fills dst with up to len(dst) packets in FIFO order with
// one head advance. Returns the number written.
//
//tva:hotpath
func (f *FIFO) DequeueBulk(dst []*packet.Packet) int {
	n := min(f.len(), len(dst))
	f.curBytes -= f.take(dst[:n])
	return n
}

// Flush drains the FIFO in order, handing each packet to release.
func (f *FIFO) Flush(release func(*packet.Packet)) {
	f.flush(release)
	f.curBytes = 0
}

// TokenBucket rate-limits a traffic class to rate bytes/second with a
// burst allowance. Tokens accrue continuously from the last update.
type TokenBucket struct {
	rateBps float64 // bytes per second
	burst   float64 // bytes
	tokens  float64
	last    tvatime.Time
}

// NewTokenBucket returns a bucket filling at rate bits/second with the
// given burst in bytes, initially full.
func NewTokenBucket(rateBitsPerSec int64, burstBytes int) *TokenBucket {
	b := float64(burstBytes)
	return &TokenBucket{rateBps: float64(rateBitsPerSec) / 8, burst: b, tokens: b}
}

func (t *TokenBucket) refill(now tvatime.Time) {
	if now.After(t.last) {
		t.tokens += t.rateBps * now.Sub(t.last).Seconds()
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
		t.last = now
	}
}

// Level returns the current token level in bytes as of now, without
// consuming anything. Gauge for the telemetry sampler.
func (t *TokenBucket) Level(now tvatime.Time) float64 {
	t.refill(now)
	return t.tokens
}

// Allow consumes n bytes of tokens if available and reports success.
func (t *TokenBucket) Allow(n int, now tvatime.Time) bool {
	t.refill(now)
	if t.tokens >= float64(n) {
		t.tokens -= float64(n)
		return true
	}
	return false
}

// When returns the earliest time at which n bytes of tokens will be
// available (now if already available). It does not consume.
func (t *TokenBucket) When(n int, now tvatime.Time) tvatime.Time {
	t.refill(now)
	deficit := float64(n) - t.tokens
	if deficit <= 0 {
		return now
	}
	if t.rateBps <= 0 {
		return now.Add(tvatime.Minute) // effectively never; poll slowly
	}
	return now.Add(tvatime.Duration(deficit / t.rateBps * float64(tvatime.Second)))
}
