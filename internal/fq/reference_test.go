package fq

import (
	"fmt"

	"tva/internal/packet"
)

// refDRR is deficit round robin walked one packet at a time, kept
// deliberately plain: a map of per-key slices and the active ring as a
// slice whose first element is served next. The bulk DRR's run-based
// enqueue and dequeue are held to it packet by packet.
type refDRR struct {
	quantum, maxQueues, perQBytes int

	queues map[uint64]*refQueue
	ring   []*refQueue
}

type refQueue struct {
	key            uint64
	pkts           []*packet.Packet
	bytes, deficit int
}

func newRefDRR(quantum, maxQueues, perQueueBytes int) *refDRR {
	return &refDRR{quantum: quantum, maxQueues: maxQueues, perQBytes: perQueueBytes,
		queues: make(map[uint64]*refQueue)}
}

// enqueue admits pkt to key's queue unless the queue-count bound (for
// a new key) or the per-queue byte cap refuses it. A new key's queue
// exists only once it holds a packet, and joins the ring's tail.
func (d *refDRR) enqueue(key uint64, pkt *packet.Packet) EnqueueResult {
	q := d.queues[key]
	if q == nil {
		if d.maxQueues > 0 && len(d.queues) >= d.maxQueues {
			return EnqDropNoQueue
		}
		q = &refQueue{key: key}
	}
	if q.bytes+pkt.Size > d.perQBytes {
		return EnqDropQueueFull
	}
	if len(q.pkts) == 0 {
		d.queues[key] = q
		d.ring = append(d.ring, q)
	}
	q.pkts = append(q.pkts, pkt)
	q.bytes += pkt.Size
	return EnqOK
}

// dequeue serves the ring head while its deficit covers its head
// packet; otherwise it tops the deficit up by one quantum and rotates
// the head to the tail. A drained queue leaves the ring and forgets
// its deficit.
func (d *refDRR) dequeue() *packet.Packet {
	for len(d.ring) > 0 {
		q := d.ring[0]
		pkt := q.pkts[0]
		if q.deficit >= pkt.Size {
			q.deficit -= pkt.Size
			q.pkts = q.pkts[1:]
			q.bytes -= pkt.Size
			if len(q.pkts) == 0 {
				d.ring = d.ring[1:]
				delete(d.queues, q.key)
			}
			return pkt
		}
		q.deficit += d.quantum
		d.ring = append(d.ring[1:], q)
	}
	return nil
}

// flush hands every queued packet to release in ring order.
func (d *refDRR) flush(release func(*packet.Packet)) {
	for _, q := range d.ring {
		for _, pkt := range q.pkts {
			release(pkt)
		}
	}
	d.ring = nil
	clear(d.queues)
}

func (d *refDRR) len() (pkts, bytes int) {
	for _, q := range d.ring {
		pkts += len(q.pkts)
		bytes += q.bytes
	}
	return pkts, bytes
}

// refFIFO is the drop-tail queue as a plain slice.
type refFIFO struct {
	byteCap, pktCap int // 0 = unlimited
	pkts            []*packet.Packet
	bytes           int
}

func (f *refFIFO) enqueue(pkt *packet.Packet) bool {
	if (f.byteCap > 0 && f.bytes+pkt.Size > f.byteCap) || (f.pktCap > 0 && len(f.pkts) >= f.pktCap) {
		return false
	}
	f.pkts = append(f.pkts, pkt)
	f.bytes += pkt.Size
	return true
}

func (f *refFIFO) dequeue() *packet.Packet {
	if len(f.pkts) == 0 {
		return nil
	}
	pkt := f.pkts[0]
	f.pkts = f.pkts[1:]
	f.bytes -= pkt.Size
	return pkt
}

// drrOps runs the operation sequence encoded in data against a DRR
// and the reference and returns the first disagreement. data[0] picks
// the queue-count bound (0–4, 0 unlimited), the quantum and the
// per-queue byte cap; each following 3-byte group [op, key, arg] is
// one EnqueueBulk of a 1–6 packet run for one of eight keys (sizes up
// to 2 KB, so a 1000-byte cap refuses whole runs; a nil slot when arg
// has its top bit set), a DequeueBulk into 0–8 slots, or a rare Flush.
// Both sides see the same packet pointers, so drops, service order and
// flush order compare by identity.
func drrOps(data []byte) error {
	if len(data) < 1 {
		return nil
	}
	cfg := data[0]
	maxQueues := int(cfg % 5)
	quantum := [...]int{100, 500, 1500}[cfg/5%3]
	perQ := [...]int{1000, 4096, 8192}[cfg/15%3]
	d, ref := NewDRR(quantum, maxQueues, perQ), newRefDRR(quantum, maxQueues, perQ)

	type drop struct {
		pkt *packet.Packet
		res EnqueueResult
	}
	var got, want []drop
	onDrop := func(p *packet.Packet, r EnqueueResult) { got = append(got, drop{p, r}) }
	var dst [8]*packet.Packet

	for step, p := 0, data[1:]; len(p) >= 3; step, p = step+1, p[3:] {
		op, key, arg := p[0]%16, uint64(p[1]%8), int(p[2])
		var what string
		switch {
		case op < 8:
			what = "EnqueueBulk"
			run := make([]*packet.Packet, 1+arg%6)
			for i := range run {
				run[i] = &packet.Packet{Dst: packet.Addr(step), TTL: uint8(i), Size: 1 + (arg*37+i*613)%2000}
			}
			if arg >= 128 && len(run) > 1 {
				run[1] = nil
			}
			got, want = got[:0], want[:0]
			wantAcc := 0
			for _, pkt := range run {
				if pkt == nil {
					continue
				}
				if r := ref.enqueue(key, pkt); r == EnqOK {
					wantAcc++
				} else {
					want = append(want, drop{pkt, r})
				}
			}
			if acc := d.EnqueueBulk(key, run, onDrop); acc != wantAcc {
				return fmt.Errorf("step %d EnqueueBulk(key %d, %d pkts): accepted %d, want %d", step, key, len(run), acc, wantAcc)
			}
			if len(got) != len(want) {
				return fmt.Errorf("step %d EnqueueBulk: %d drops, want %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("step %d EnqueueBulk drop %d: %+v, want %+v", step, i, got[i], want[i])
				}
			}
		case op < 15 || arg >= 32:
			what = "DequeueBulk"
			w := arg % 9
			n := d.DequeueBulk(dst[:w])
			for i := 0; i < w; i++ {
				r := ref.dequeue()
				if r == nil {
					if i != n {
						return fmt.Errorf("step %d DequeueBulk(%d) = %d, reference drained at %d", step, w, n, i)
					}
					break
				}
				if i >= n || dst[i] != r {
					return fmt.Errorf("step %d DequeueBulk(%d) slot %d: %d written, want %+v", step, w, i, n, r)
				}
			}
		default:
			what = "Flush"
			var gotF, wantF []*packet.Packet
			d.Flush(func(p *packet.Packet) { gotF = append(gotF, p) })
			ref.flush(func(p *packet.Packet) { wantF = append(wantF, p) })
			if len(gotF) != len(wantF) {
				return fmt.Errorf("step %d Flush released %d, want %d", step, len(gotF), len(wantF))
			}
			for i := range gotF {
				if gotF[i] != wantF[i] {
					return fmt.Errorf("step %d Flush release %d: %+v, want %+v", step, i, gotF[i], wantF[i])
				}
			}
		}
		pkts, bytes := ref.len()
		if d.Len() != pkts || d.Bytes() != bytes || d.NumQueues() != len(ref.queues) {
			return fmt.Errorf("step %d after %s: len %d bytes %d queues %d, want %d %d %d",
				step, what, d.Len(), d.Bytes(), d.NumQueues(), pkts, bytes, len(ref.queues))
		}
	}
	return nil
}
