package flowstats

import (
	"math"
	"math/bits"
	"sort"

	"tva/internal/keyhash"
)

// entry is one tracked sender. Its byte count, the space-saving
// ranking counter, lives in the entry's tree leaf: on eviction the
// replacement inherits the evicted minimum (so Bytes is an
// overestimate by at most Err); the auxiliary counters restart from
// zero at takeover, since inheriting another sender's drops would be
// pure noise.
type entry struct {
	key       Key
	pkts      uint64
	drops     uint64
	demotions uint64
	err       uint64
}

// Sample is one exported table entry (or one merged row). Err is the
// space-saving overestimate bound on Bytes: zero for senders tracked
// since their first packet, the evicted minimum otherwise.
type Sample struct {
	Key       Key
	Bytes     uint64
	Pkts      uint64
	Drops     uint64
	Demotions uint64
	Err       uint64
}

// tableIndexFactor sizes the key index at 16 slots per entry (load
// factor <= 1/16 after rounding up to a power of two). The keyed hash
// places keys at random, so a full table churning a new sender per
// packet probes, deletes and reinserts through occupied slots in
// proportion to the load: at 1/4 that made Observe twice as slow as at
// 1/16, which costs 8 KB of 16-byte slots at DefaultTopK.
const tableIndexFactor = 16

// node is one tournament-tree node: the byte count of the slot that
// wins its subtree, and that slot.
type node struct {
	bytes uint64
	slot  uint32
}

// Table is a space-saving top-K heavy-hitter table: K preallocated
// entry slots, a keyhash.Index from key to slot (no Go map — the hot
// path must not hash through runtime map code or allocate), and a
// tournament tree over the slots' byte counts. The tree has 2L nodes,
// L being K rounded up to a power of two: node L+s is slot s's leaf
// (MaxUint64 while the slot is unfilled), and every internal node holds
// the smaller of its two children, the left one on ties. So tree[1] is
// the minimum and, among equal minima, the lowest slot: the entry a new
// sender evicts. Entries never move; a touch replays only its slot's
// leaf-to-root path. Keys are sender addresses, so the index hash is
// keyed per table; slot placement in the index never reaches samples
// or merges, which stay deterministic.
type Table struct {
	n       int
	entries []entry
	tree    []node
	idx     keyhash.Index
}

// Init sizes the table for k tracked senders. It is the only method
// that allocates.
func (t *Table) Init(k int) {
	k = max(k, 1)
	l := 1 << bits.Len(uint(k-1))
	t.n = 0
	t.entries = make([]entry, k)
	t.tree = make([]node, 2*l)
	for s := range l {
		t.tree[l+s] = node{math.MaxUint64, uint32(s)}
	}
	for p := l - 1; p > 0; p-- {
		t.tree[p] = t.tree[2*p]
	}
	t.idx = keyhash.NewIndex(k, tableIndexFactor)
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.n }

// K returns the table's capacity.
func (t *Table) K() int { return len(t.entries) }

// replay sets slot s's leaf to b and recomputes the leaf's ancestors up
// to node top. The winner rides in registers, and each level picks
// between it and the sibling without a data-dependent branch: the
// sibling wins when its (bytes, slot) pair is the smaller, which is the
// tree's ties-go-left rule because left subtrees hold the lower slots.
//
//tva:hotpath
func (t *Table) replay(s uint32, b uint64, top uint32) {
	tr := t.tree
	p := uint32(len(tr)/2) + s
	tr[p].bytes = b
	for ; p > top; p >>= 1 {
		sib := tr[p^1]
		_, lt := bits.Sub64(uint64(sib.slot), uint64(s), 0)
		_, lt = bits.Sub64(sib.bytes, b, lt)
		m := -lt // all ones when the sibling wins
		b ^= (b ^ sib.bytes) & m
		s ^= (s ^ sib.slot) & uint32(m)
		tr[p>>1] = node{b, s}
	}
}

// touch accounts one event to key k: bytes/pkts on observation,
// drops/demotions at loss sites. Space-saving semantics apply to the
// byte counter: a new sender seen while the table is full replaces the
// current minimum and inherits its byte count (recording the old
// minimum as the entry's error bound). Zero-byte events (drops,
// demotions) never evict — an untracked sender's losses are simply
// not attributed rather than displacing a real heavy hitter.
//
//tva:hotpath
func (t *Table) touch(k Key, bytes, pkts, drops, demotions uint64) {
	h, home := t.idx.FindHome(uint64(k))
	if h >= 0 {
		e := &t.entries[h]
		e.pkts += pkts
		e.drops += drops
		e.demotions += demotions
		if bytes > 0 {
			// Counts only grow, so the nodes to replay are the ones
			// this slot was winning.
			s, leaf := uint32(h), uint32(len(t.tree)/2)+uint32(h)
			top := leaf
			for top > 1 && t.tree[top>>1].slot == s {
				top >>= 1
			}
			t.replay(s, t.tree[leaf].bytes+bytes, top)
		}
		return
	}
	s, err := uint32(t.n), uint64(0)
	switch {
	case t.n < len(t.entries):
		t.n++
	case bytes == 0:
		return
	default:
		s, err = t.tree[1].slot, t.tree[1].bytes
		t.idx.Delete(uint64(t.entries[s].key))
	}
	// Field by field: a composite literal is built on the stack and
	// copied in 16-byte moves that stall on its 8-byte stores.
	e := &t.entries[s]
	e.key, e.pkts, e.drops, e.demotions, e.err = k, pkts, drops, demotions, err
	t.idx.InsertHome(uint64(k), home, int32(s))
	t.replay(s, err+bytes, 1)
}

// leaves returns the filled slots' leaves, in slot order.
func (t *Table) leaves() []node {
	l := len(t.tree) / 2
	return t.tree[l : l+t.n]
}

// MaxBytes returns the largest tracked byte count (0 when empty).
func (t *Table) MaxBytes() uint64 {
	var top uint64
	for _, nd := range t.leaves() {
		top = max(top, nd.bytes)
	}
	return top
}

// AppendSamples appends the live entries to dst, unsorted.
func (t *Table) AppendSamples(dst []Sample) []Sample {
	for i, nd := range t.leaves() {
		e := &t.entries[i]
		dst = append(dst, Sample{
			Key: e.key, Bytes: nd.bytes, Pkts: e.pkts,
			Drops: e.drops, Demotions: e.demotions, Err: e.err,
		})
	}
	return dst
}

// SortSamples orders samples for display and export: bytes descending,
// key ascending on ties — a total order, so equal inputs always yield
// byte-identical output.
func SortSamples(s []Sample) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Bytes != s[j].Bytes {
			return s[i].Bytes > s[j].Bytes
		}
		return s[i].Key < s[j].Key
	})
}

// MergeSamples combines snapshots from several collectors (ports,
// engines) into one deterministic ranking: counters are summed per
// key, then rows are ordered by SortSamples and truncated to k (k <= 0
// keeps every row). The result depends only on the multiset of input
// rows, never on collector iteration order.
func MergeSamples(in []Sample, k int) []Sample {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Key < in[j].Key })
	out := in[:0]
	cur := in[0]
	for _, s := range in[1:] {
		if s.Key == cur.Key {
			cur.Bytes += s.Bytes
			cur.Pkts += s.Pkts
			cur.Drops += s.Drops
			cur.Demotions += s.Demotions
			cur.Err += s.Err
			continue
		}
		out = append(out, cur)
		cur = s
	}
	out = append(out, cur)
	SortSamples(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
