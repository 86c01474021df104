package fq

import (
	"math/rand"
	"testing"

	"tva/internal/packet"
)

// TestDRRBulkEquivalence runs long random operation sequences through
// drrOps: bulk enqueues, dequeues of every width and flushes against
// the per-packet reference DRR, with identical admission, drop
// attribution, service order and bookkeeping required throughout.
func TestDRRBulkEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+3*200)
		rng.Read(data)
		if err := drrOps(data); err != nil {
			t.Fatalf("trial %d (config %d): %v", trial, data[0], err)
		}
	}
}

// FuzzDRROps holds the bulk DRR to the per-packet reference on fuzzed
// operation sequences.
func FuzzDRROps(f *testing.F) {
	f.Add([]byte{4, 0, 1, 200, 1, 2, 200, 8, 0, 8, 9, 0, 8})                          // oversized runs at the queue bound
	f.Add([]byte{30, 0, 1, 5, 0, 2, 5, 0, 1, 5, 8, 0, 1, 8, 0, 1, 8, 0, 1, 15, 0, 0}) // one-slot drains, then Flush
	f.Add([]byte{62, 3, 0, 133, 3, 1, 140, 10, 0, 7, 3, 2, 77, 11, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := drrOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFIFOBulkEquivalence drives random runs and drains through the
// bulk FIFO and the per-packet reference, under both byte and packet
// caps.
func TestFIFOBulkEquivalence(t *testing.T) {
	for name, mk := range map[string]func() (*FIFO, *refFIFO){
		"bytes": func() (*FIFO, *refFIFO) { return NewFIFO(4096), &refFIFO{byteCap: 4096} },
		"pkts":  func() (*FIFO, *refFIFO) { return NewFIFOCount(7), &refFIFO{pktCap: 7} },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			bulk, ref := mk()
			for round := 0; round < 60; round++ {
				pkts := make([]*packet.Packet, 1+rng.Intn(6))
				var wantDrops, gotDrops []*packet.Packet
				wantAcc := 0
				for i := range pkts {
					pkts[i] = &packet.Packet{Src: packet.Addr(round), Dst: packet.Addr(i), Size: 100 + rng.Intn(1200)}
					if ref.enqueue(pkts[i]) {
						wantAcc++
					} else {
						wantDrops = append(wantDrops, pkts[i])
					}
				}
				gotAcc := bulk.EnqueueBulk(pkts, func(p *packet.Packet) { gotDrops = append(gotDrops, p) })
				if wantAcc != gotAcc || len(wantDrops) != len(gotDrops) {
					t.Fatalf("round %d: accepted %d/%d drops %d/%d", round, gotAcc, wantAcc, len(gotDrops), len(wantDrops))
				}
				for i := range gotDrops {
					if gotDrops[i] != wantDrops[i] {
						t.Fatalf("round %d drop %d: %+v, want %+v", round, i, gotDrops[i], wantDrops[i])
					}
				}
				dst := make([]*packet.Packet, rng.Intn(6))
				got := bulk.DequeueBulk(dst)
				for i := range dst {
					want := ref.dequeue()
					if (i < got) != (want != nil) || (want != nil && dst[i] != want) {
						t.Fatalf("round %d pos %d: bulk wrote %d, slot %+v, reference %+v", round, i, got, dst[i], want)
					}
				}
				if bulk.Len() != len(ref.pkts) || bulk.Bytes() != ref.bytes {
					t.Fatalf("round %d: len %d/%d bytes %d/%d", round, bulk.Len(), len(ref.pkts), bulk.Bytes(), ref.bytes)
				}
			}
			var flushed []*packet.Packet
			bulk.Flush(func(p *packet.Packet) { flushed = append(flushed, p) })
			if len(flushed) != len(ref.pkts) {
				t.Fatalf("Flush released %d, want %d", len(flushed), len(ref.pkts))
			}
			for i := range flushed {
				if flushed[i] != ref.pkts[i] {
					t.Fatalf("Flush release %d out of FIFO order", i)
				}
			}
			if bulk.Len() != 0 || bulk.Bytes() != 0 {
				t.Fatalf("after Flush: len %d bytes %d", bulk.Len(), bulk.Bytes())
			}
		})
	}
}

// TestBulkStateMachineEdges pins the DequeueBulk resume semantics: a
// full dst leaves the served queue at the ring head with its deficit,
// and a drained queue retires to the free list.
func TestBulkStateMachineEdges(t *testing.T) {
	d := NewDRR(1500, 0, 1<<20)
	for i := 0; i < 3; i++ {
		d.EnqueueBulk(1, []*packet.Packet{{Dst: 1, Size: 1000}}, nil)
		d.EnqueueBulk(2, []*packet.Packet{{Dst: 2, Size: 1000}}, nil)
	}
	dst := make([]*packet.Packet, 1)
	// One-slot drains walk the DRR deficit order exactly, including the deficit carry-over that lets a queue send twice in
	// a row once its accumulated deficit covers two packets.
	var order []packet.Addr
	for d.Len() > 0 {
		n := d.DequeueBulk(dst)
		if n != 1 {
			t.Fatalf("DequeueBulk = %d, want 1", n)
		}
		order = append(order, dst[0].Dst)
	}
	want := []packet.Addr{1, 2, 1, 1, 2, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
	if d.NumQueues() != 0 {
		t.Fatalf("queues not retired: %d", d.NumQueues())
	}
}
