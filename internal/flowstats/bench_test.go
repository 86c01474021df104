package flowstats

import (
	"math/rand"
	"testing"

	"tva/internal/packet"
)

// mixSizes are the sizes at which core's observer sees the benchmark's
// core_mix kinds, in its shares out of 100: legacy 10, request 10,
// regular hit 60, regular miss 10, renewal hit 8 and renewal miss 2.
var mixSizes = [...]struct{ size, share int }{{20, 10}, {34, 10}, {28, 60}, {40, 10}, {52, 8}, {52, 2}}

// mixPackets returns n packets from n distinct senders, their sizes
// drawn in mixSizes' shares in a seeded order.
func mixPackets(n int) []packet.Packet {
	var sizes []int
	for _, m := range mixSizes {
		for range m.share {
			sizes = append(sizes, m.size)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		pkts[i] = packet.Packet{Src: packet.Addr(i + 1), Size: sizes[rng.Intn(len(sizes))]}
	}
	return pkts
}

func benchObserve(b *testing.B, senders int) {
	c := New(DefaultTopK, DefaultSketchWidth)
	pkts := mixPackets(senders)
	for i := range pkts {
		c.Observe(&pkts[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(&pkts[i%len(pkts)])
	}
}

// BenchmarkObserveChurn is core_mix's traffic: about as many senders as
// its flows, so nearly every Observe evicts the table's minimum.
func BenchmarkObserveChurn(b *testing.B) { benchObserve(b, 84_480) }

// BenchmarkObserveHits has fewer senders than DefaultTopK, so every
// Observe finds its sender tracked.
func BenchmarkObserveHits(b *testing.B) { benchObserve(b, 24) }
