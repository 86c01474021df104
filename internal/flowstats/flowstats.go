// Package flowstats is bounded-memory per-sender accounting for both
// data planes: a space-saving top-K heavy-hitter table (bytes, packets,
// drops, demotions per sender in O(K) memory regardless of sender
// count), a count-min sketch for total-traffic estimates over the full
// sender population, and a streaming fairness engine maintaining
// Jain's fairness index and a max/min goodput ratio per metrics
// window.
//
// Everything on the record path is preallocated at construction and
// //tva:hotpath-clean: no maps, no closures, no allocation — a table
// touch is an open-addressed probe plus a heap sift, a sketch update
// is four array adds. Collectors are not synchronized; each owner
// (a core engine, a port scheduler) holds its own collector under its
// own lock and snapshots merge deterministically
// off the hot path (DESIGN.md §16).
//
// Senders are keyed the way the paper holds them accountable (§3.2):
// request packets by their most recent path identifier (source
// addresses on requests are spoofable; the path-id is stamped by the
// trust boundary), everything else by source address.
package flowstats

import "tva/internal/packet"

// Key identifies one accounted sender: the source address in the high
// 32 bits of the significant range and the path identifier (non-zero
// only for request traffic) in the low 16.
type Key uint64

// KeyFor builds the accounting key for an address/path-id pair.
func KeyFor(src packet.Addr, path packet.PathID) Key {
	return Key(uint64(src)<<16 | uint64(path))
}

// Src returns the key's source address.
func (k Key) Src() packet.Addr { return packet.Addr(k >> 16) }

// Path returns the key's path identifier (zero for non-request keys).
func (k Key) Path() packet.PathID { return packet.PathID(k) }

// keyOf derives the accounting key from a packet: requests by their
// last stamped path identifier, all other traffic by source address.
//
//tva:hotpath
func keyOf(pkt *packet.Packet) Key {
	if pkt.Hdr != nil && pkt.Hdr.Kind == packet.KindRequest {
		ids := pkt.Hdr.Request.PathIDs
		if len(ids) > 0 {
			return KeyFor(pkt.Src, ids[len(ids)-1])
		}
	}
	return KeyFor(pkt.Src, 0)
}

// Default sizing: 32 tracked heavy hitters and a 1024-wide sketch per
// collector keep a collector around 40 KB while holding the count-min
// overestimate under ~0.27% of total bytes (e/width).
const (
	DefaultTopK        = 32
	DefaultSketchWidth = 1024
)

// Collector is one owner's accounting unit: a top-K table plus a
// count-min sketch fed by the same stream. A nil *Collector is a valid
// no-op receiver, so data-path hooks cost one branch when accounting
// is off.
type Collector struct {
	table  Table
	sketch Sketch
}

// New builds a collector tracking the top k senders with a count-min
// sketch of the given width (rounded up to a power of two).
func New(k, sketchWidth int) *Collector {
	c := &Collector{}
	c.table.Init(k)
	c.sketch.Init(sketchWidth)
	return c
}

// Observe accounts one forwarded/processed packet to its sender.
//
//tva:hotpath
func (c *Collector) Observe(pkt *packet.Packet) {
	if c == nil {
		return
	}
	k := keyOf(pkt)
	n := uint64(pkt.Size)
	c.table.touch(k, n, 1, 0, 0)
	c.sketch.add(k, n)
}

// Drop accounts one scheduler/queue drop to the packet's sender. A
// sender not already tracked is only added while the table has room —
// drops alone never evict a heavy hitter.
//
//tva:hotpath
func (c *Collector) Drop(pkt *packet.Packet) {
	if c == nil {
		return
	}
	c.table.touch(keyOf(pkt), 0, 0, 1, 0)
}

// Demote accounts one capability demotion (§3.8) to the packet's
// sender, under the same no-eviction rule as Drop.
//
//tva:hotpath
func (c *Collector) Demote(pkt *packet.Packet) {
	if c == nil {
		return
	}
	c.table.touch(keyOf(pkt), 0, 0, 0, 1)
}

// Tracked returns the number of live table entries.
func (c *Collector) Tracked() int {
	if c == nil {
		return 0
	}
	return c.table.Len()
}

// TotalBytes returns the exact total byte count the collector has
// observed (the count-min stream total N).
func (c *Collector) TotalBytes() uint64 {
	if c == nil {
		return 0
	}
	return c.sketch.N()
}

// TopShare returns the top tracked sender's fraction of all observed
// bytes (0 before any traffic).
func (c *Collector) TopShare() float64 {
	if c == nil {
		return 0
	}
	n := c.sketch.N()
	if n == 0 {
		return 0
	}
	return float64(c.table.MaxBytes()) / float64(n)
}

// Estimate returns the count-min byte estimate for one sender: never
// an underestimate, and over by at most ~e/width of TotalBytes with
// high probability.
func (c *Collector) Estimate(k Key) uint64 {
	if c == nil {
		return 0
	}
	return c.sketch.Estimate(k)
}

// AppendSamples appends the live table entries to dst, unsorted. Not
// for the hot path; callers snapshot under their own lock and merge
// with MergeSamples.
func (c *Collector) AppendSamples(dst []Sample) []Sample {
	if c == nil {
		return dst
	}
	return c.table.AppendSamples(dst)
}
