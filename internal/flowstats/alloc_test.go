package flowstats

import (
	"testing"

	"tva/internal/packet"
)

// TestFlowStatsNoAllocs is the dynamic twin of the //tva:hotpath
// annotations: every record-path entry point must be allocation-free,
// through every table path: filling empty slots, the transition to
// full, hits (a partial replay), evictions (an index delete and insert
// and a full leaf-to-root replay per packet), and zero-byte touches on
// a full table, which only update or skip.
func TestFlowStatsNoAllocs(t *testing.T) {
	const runs = 100
	hdr := &packet.CapHdr{
		Kind:    packet.KindRequest,
		Request: packet.RequestHdr{PathIDs: []packet.PathID{3}},
	}
	pkts := make([]packet.Packet, 4*DefaultTopK)
	for i := range pkts {
		pkts[i] = packet.Packet{Src: packet.Addr(i + 1), Size: 1000 + i%3}
	}
	pkts[0].Hdr = hdr // one request so the path-id keying runs too

	// AllocsPerRun calls the function runs+1 times; each call starts
	// from an empty collector built here.
	cs := make([]*Collector, runs+1)
	for i := range cs {
		cs[i] = New(DefaultTopK, DefaultSketchWidth)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c := cs[i]
		i++
		for j := range pkts { // fill, then evict
			c.Observe(&pkts[j])
		}
		for j := range pkts { // zero-byte touches on a full table
			c.Drop(&pkts[j])
			c.Demote(&pkts[j])
		}
		last := &pkts[len(pkts)-1]
		c.Observe(last) // a hit
		c.Observe(last)
	})
	if allocs != 0 {
		t.Fatalf("flowstats record path allocates %.1f allocs/op, want 0", allocs)
	}

	var nilC *Collector
	allocs = testing.AllocsPerRun(100, func() {
		nilC.Observe(&pkts[0])
		nilC.Drop(&pkts[0])
		nilC.Demote(&pkts[0])
	})
	if allocs != 0 {
		t.Fatalf("nil collector no-ops allocate %.1f allocs/op, want 0", allocs)
	}
}
