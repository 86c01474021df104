package fq

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

func pkt(size int) *packet.Packet { return &packet.Packet{Size: size} }

// enq offers pkt to key's queue as a one-packet run and reports the
// verdict.
func enq(d *DRR, key uint64, pkt *packet.Packet) EnqueueResult {
	res := EnqOK
	d.EnqueueBulk(key, []*packet.Packet{pkt}, func(_ *packet.Packet, r EnqueueResult) { res = r })
	return res
}

// deq takes the next packet through a one-slot DequeueBulk, or nil.
func deq(d *DRR) *packet.Packet {
	var one [1]*packet.Packet
	d.DequeueBulk(one[:])
	return one[0]
}

// fifoEnq offers pkt to f as a one-packet run and reports admission.
func fifoEnq(f *FIFO, pkt *packet.Packet) bool {
	return f.EnqueueBulk([]*packet.Packet{pkt}, nil) == 1
}

// fifoDeq takes the head packet through a one-slot DequeueBulk, or nil.
func fifoDeq(f *FIFO) *packet.Packet {
	var one [1]*packet.Packet
	f.DequeueBulk(one[:])
	return one[0]
}

func TestDRRFairnessEqualSizes(t *testing.T) {
	// Two equally backlogged flows with equal packet sizes are served
	// within one packet of each other at every point in the drain.
	d := NewDRR(1500, 0, 1<<20)
	for i := 0; i < 100; i++ {
		enq(d, 1, taggedPkt(1, 1000))
		enq(d, 2, taggedPkt(2, 1000))
	}
	served := map[uint8]int{}
	for i := 0; i < 200; i++ {
		p := deq(d)
		if p == nil {
			t.Fatal("premature empty")
		}
		served[p.TTL]++
		// Deficits carry across rounds, so service may burst by up to
		// ~quantum/size packets, but never diverge further.
		if d := served[1] - served[2]; d < -3 || d > 3 {
			t.Fatalf("service diverged at step %d: %v", i, served)
		}
	}
	if served[1] != served[2] {
		t.Errorf("final shares unequal: %v", served)
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d, want 0", d.Len())
	}
}

func taggedPkt(flow uint8, size int) *packet.Packet {
	return &packet.Packet{TTL: flow, Size: size}
}

func TestDRRByteFairnessUnequalSizes(t *testing.T) {
	// Flow 1 sends 1500B packets, flow 2 sends 300B packets. Byte-fair
	// service means flow 2 dequeues ~5x as many packets.
	d := NewDRR(1500, 0, 1<<20)
	for i := 0; i < 200; i++ {
		enq(d, 1, taggedPkt(1, 1500))
	}
	for i := 0; i < 1000; i++ {
		enq(d, 2, taggedPkt(2, 300))
	}
	bytes := map[uint8]int{}
	served := 0
	for served < 150*1500 {
		p := deq(d)
		if p == nil {
			break
		}
		bytes[p.TTL] += p.Size
		served += p.Size
	}
	ratio := float64(bytes[1]) / float64(bytes[2])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("byte shares not fair: flow1=%d flow2=%d (ratio %.2f)", bytes[1], bytes[2], ratio)
	}
}

func TestDRRNewFlowNotStarved(t *testing.T) {
	// A new flow's first packet must be served within roughly one
	// round of the existing backlogged flows.
	d := NewDRR(100, 0, 1<<20)
	for f := uint64(1); f <= 10; f++ {
		for i := 0; i < 50; i++ {
			enq(d, f, taggedPkt(uint8(f), 100))
		}
	}
	enq(d, 99, taggedPkt(99, 100))
	for i := 0; i < 25; i++ {
		if deq(d).TTL == 99 {
			return
		}
	}
	t.Error("new flow not served within ~2 rounds of 10 flows")
}

func TestDRRPerQueueCap(t *testing.T) {
	d := NewDRR(1500, 0, 2500)
	if enq(d, 1, pkt(1000)) != EnqOK || enq(d, 1, pkt(1000)) != EnqOK {
		t.Fatal("enqueue under cap failed")
	}
	if got := enq(d, 1, pkt(1000)); got != EnqDropQueueFull {
		t.Errorf("enqueue over per-queue cap = %v, want EnqDropQueueFull", got)
	}
	// Another flow is unaffected.
	if enq(d, 2, pkt(1000)) != EnqOK {
		t.Error("other flow should not be capped")
	}
}

func TestDRRMaxQueues(t *testing.T) {
	d := NewDRR(1500, 2, 1<<20)
	enq(d, 1, pkt(100))
	enq(d, 2, pkt(100))
	if got := enq(d, 3, pkt(100)); got != EnqDropNoQueue {
		t.Errorf("third queue enqueue = %v, want EnqDropNoQueue", got)
	}
	// Draining queue 1 frees a slot.
	deq(d)
	deq(d)
	if enq(d, 3, pkt(100)) != EnqOK {
		t.Error("queue slot not reclaimed after drain")
	}
}

func TestDRRDrainInterleavedWithEnqueue(t *testing.T) {
	d := NewDRR(1500, 0, 1<<20)
	total := 0
	for i := 0; i < 50; i++ {
		enq(d, uint64(i%3), pkt(500))
		total++
		if i%2 == 1 {
			if deq(d) != nil {
				total--
			}
		}
	}
	for deq(d) != nil {
		total--
	}
	if total != 0 {
		t.Errorf("leaked %d packets", total)
	}
	if d.Len() != 0 || d.Bytes() != 0 || d.NumQueues() != 0 {
		t.Errorf("not empty after drain: len=%d bytes=%d queues=%d", d.Len(), d.Bytes(), d.NumQueues())
	}
}

// TestDRRRefusedRunLeavesNoQueue: a new key whose whole run the byte
// cap refuses must not leave a queue behind. Such a queue never joins
// the active ring, so nothing would retire it, and it would count
// against maxQueues forever: after maxQueues oversized packets every
// new key would be refused as if the queue-count bound were hit.
func TestDRRRefusedRunLeavesNoQueue(t *testing.T) {
	d := NewDRR(1500, 4, 4096)
	for key := uint64(0); key < 4; key++ {
		if n := d.EnqueueBulk(key, []*packet.Packet{{Size: 5000}}, nil); n != 0 {
			t.Fatalf("oversized packet to key %d admitted", key)
		}
	}
	if d.NumQueues() != 0 || d.Len() != 0 {
		t.Fatalf("after refused runs: %d queues, %d packets; want 0, 0", d.NumQueues(), d.Len())
	}
	var refused EnqueueResult
	n := d.EnqueueBulk(99, []*packet.Packet{{Size: 100}}, func(_ *packet.Packet, r EnqueueResult) { refused = r })
	if n != 1 {
		t.Fatalf("small packet to a fresh key refused (%v)", refused)
	}
}

func TestDRREmptyDequeue(t *testing.T) {
	d := NewDRR(1500, 0, 0)
	if deq(d) != nil {
		t.Error("empty DRR returned a packet")
	}
}

func TestFIFOOrderAndDrops(t *testing.T) {
	f := NewFIFO(2500)
	a, b, c := pkt(1000), pkt(1000), pkt(1000)
	if !fifoEnq(f, a) || !fifoEnq(f, b) {
		t.Fatal("enqueue failed")
	}
	if fifoEnq(f, c) {
		t.Error("over-capacity enqueue succeeded")
	}
	if fifoDeq(f) != a || fifoDeq(f) != b || fifoDeq(f) != nil {
		t.Error("FIFO order violated")
	}
	if f.Bytes() != 0 || f.Len() != 0 {
		t.Error("FIFO not empty after drain")
	}
}

func TestFIFOCountCap(t *testing.T) {
	f := NewFIFOCount(2)
	if !fifoEnq(f, pkt(10_000)) || !fifoEnq(f, pkt(1)) {
		t.Fatal("packet-count FIFO should ignore sizes")
	}
	if fifoEnq(f, pkt(1)) {
		t.Error("third packet should drop")
	}
}

func TestTokenBucketRate(t *testing.T) {
	// 8000 bits/s = 1000 bytes/s with 500B burst.
	tb := NewTokenBucket(8000, 500)
	now := tvatime.Time(0)
	if !tb.Allow(500, now) {
		t.Fatal("initial burst should be allowed")
	}
	if tb.Allow(100, now) {
		t.Error("bucket should be empty")
	}
	// After 100ms, 100 bytes accrue.
	now = now.Add(100 * tvatime.Millisecond)
	if !tb.Allow(100, now) {
		t.Error("100B after 100ms should be allowed")
	}
	if tb.Allow(1, now) {
		t.Error("bucket should be drained again")
	}
}

func TestTokenBucketWhen(t *testing.T) {
	tb := NewTokenBucket(8000, 500) // 1000 B/s
	now := tvatime.Time(0)
	tb.Allow(500, now)
	when := tb.When(200, now)
	want := now.Add(200 * tvatime.Millisecond)
	diff := when.Sub(want)
	if diff < -tvatime.Millisecond || diff > tvatime.Millisecond {
		t.Errorf("When = %v, want ≈%v", when, want)
	}
	// When must not consume.
	if tb.When(200, now) != when {
		t.Error("When consumed tokens")
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	tb := NewTokenBucket(8000, 500)
	now := tvatime.Time(0)
	tb.Allow(500, now)
	// A long idle period must not accumulate more than the burst.
	now = now.Add(time100())
	if tb.Allow(501, now) {
		t.Error("accrued more than the burst")
	}
	if !tb.Allow(500, now) {
		t.Error("burst should be available after long idle")
	}
}

func time100() tvatime.Duration { return 100 * tvatime.Second }

func TestTokenBucketLevel(t *testing.T) {
	tb := NewTokenBucket(8000, 500) // 1000 B/s
	now := tvatime.Time(0)
	if lvl := tb.Level(now); lvl != 500 {
		t.Fatalf("initial Level = %v, want 500 (full burst)", lvl)
	}
	tb.Allow(500, now)
	if lvl := tb.Level(now); lvl != 0 {
		t.Fatalf("Level after drain = %v, want 0", lvl)
	}
	now = now.Add(100 * tvatime.Millisecond)
	if lvl := tb.Level(now); lvl < 99 || lvl > 101 {
		t.Fatalf("Level after 100ms = %v, want ~100", lvl)
	}
}

func BenchmarkDRREnqueueDequeue(b *testing.B) {
	d := NewDRR(1500, 0, 1<<30)
	in := []*packet.Packet{pkt(1000)}
	var out [1]*packet.Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.EnqueueBulk(uint64(i%64), in, nil)
		d.DequeueBulk(out[:])
	}
}
