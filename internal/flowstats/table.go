package flowstats

import (
	"math/bits"
	"sort"

	"tva/internal/keyhash"
)

// entry is one tracked sender. Its byte count, the space-saving
// ranking counter, lives in the entry's heap node: on eviction the
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
	home      uint32 // hashOf(key), kept so deletion never rehashes
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

// tableIndexFactor sizes the open-addressed index at 16 slots per
// entry (load factor <= 1/16 after rounding up to a power of two). The
// keyed hash places keys at random, so a full table churning a new
// sender per packet probes, deletes and reinserts through occupied
// slots in proportion to the load: at 1/4 that made Observe twice as
// slow as at 1/16, which costs 2 KB at DefaultTopK.
const tableIndexFactor = 16

// heapNode is one heap slot: an entry's byte count (its ranking
// counter, kept here so sifts compare contiguous memory) and the
// entry's index.
type heapNode struct {
	bytes uint64
	idx   int32
}

// Table is a space-saving top-K heavy-hitter table: K preallocated
// entries, an open-addressed key index (no Go map — the hot path must
// not hash through runtime map code or allocate), and a min-heap over
// the ranking counter so eviction of the current minimum is O(log K).
type Table struct {
	k       int
	n       int
	entries []entry
	heap    []heapNode // min-heap by bytes
	pos     []int32    // entry index -> heap position
	slots   []int32    // open-addressed index; entryIdx+1, 0 = empty
	mask    uint32
	seed    keyhash.Seed
}

// Init sizes the table for k tracked senders. It is the only method
// that allocates.
func (t *Table) Init(k int) {
	if k < 1 {
		k = 1
	}
	nslots := 1 << bits.Len(uint(k*tableIndexFactor-1))
	t.k = k
	t.n = 0
	t.entries = make([]entry, k)
	t.heap = make([]heapNode, k)
	t.pos = make([]int32, k)
	t.slots = make([]int32, nslots)
	t.mask = uint32(nslots - 1)
	t.seed = keyhash.New()
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.n }

// K returns the table's capacity.
func (t *Table) K() int { return t.k }

// hashOf spreads a key over the slot space. Keys are sender
// addresses, so the hash is keyed per table; slot placement never
// reaches samples or merges, which stay deterministic.
//
//tva:hotpath
func (t *Table) hashOf(k Key) uint32 {
	return uint32(t.seed.Sum(uint64(k))) & t.mask
}

// find returns the entry index for key, whose hash is h, or -1.
//
//tva:hotpath
func (t *Table) find(k Key, h uint32) int32 {
	i := h
	for {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.entries[s-1].key == k {
			return s - 1
		}
		i = (i + 1) & t.mask
	}
}

// insertSlot indexes entry idx at home h (its key must be absent).
//
//tva:hotpath
func (t *Table) insertSlot(h uint32, idx int32) {
	t.entries[idx].home = h
	i := h
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = idx + 1
}

// removeEntry unindexes entry idx using backward-shift deletion,
// which keeps probe chains gap-free without tombstones.
//
//tva:hotpath
func (t *Table) removeEntry(idx int32) {
	i := t.entries[idx].home
	for t.slots[i] != idx+1 {
		i = (i + 1) & t.mask
	}
	j := i
	for {
		j = (j + 1) & t.mask
		s := t.slots[j]
		if s == 0 {
			break
		}
		h := t.entries[s-1].home
		// Slot j's occupant may fill the hole at i only if its home
		// position is cyclically at or before i — i.e. i lies inside
		// its probe chain.
		if ((j - h) & t.mask) >= ((j - i) & t.mask) {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = 0
}

// siftDown restores heap order downward from heap position p after
// the ranking counter there grew.
//
//tva:hotpath
func (t *Table) siftDown(p int32) {
	h := t.heap
	n := int32(t.n)
	nd := h[p]
	for {
		l := 2*p + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].bytes < h[l].bytes {
			m = r
		}
		if h[m].bytes >= nd.bytes {
			break
		}
		h[p] = h[m]
		t.pos[h[p].idx] = p
		p = m
	}
	h[p] = nd
	t.pos[nd.idx] = p
}

// heapPush adds entry idx (already in entries) with its byte count at
// the heap's end and sifts it up.
//
//tva:hotpath
func (t *Table) heapPush(idx int32, bytes uint64) {
	h := t.heap
	p := int32(t.n) - 1 // caller bumped t.n; new element goes last
	for p > 0 {
		parent := (p - 1) / 2
		if h[parent].bytes <= bytes {
			break
		}
		h[p] = h[parent]
		t.pos[h[p].idx] = p
		p = parent
	}
	h[p] = heapNode{bytes: bytes, idx: idx}
	t.pos[idx] = p
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
	h := t.hashOf(k)
	if idx := t.find(k, h); idx >= 0 {
		e := &t.entries[idx]
		e.pkts += pkts
		e.drops += drops
		e.demotions += demotions
		if bytes > 0 {
			p := t.pos[idx]
			t.heap[p].bytes += bytes
			t.siftDown(p)
		}
		return
	}
	if t.n < t.k {
		idx := int32(t.n)
		t.n++
		e := &t.entries[idx]
		e.key = k
		e.pkts = pkts
		e.drops = drops
		e.demotions = demotions
		e.err = 0
		t.insertSlot(h, idx)
		t.heapPush(idx, bytes)
		return
	}
	if bytes == 0 {
		return
	}
	root := &t.heap[0]
	e := &t.entries[root.idx]
	t.removeEntry(root.idx)
	e.err = root.bytes
	e.key = k
	root.bytes += bytes
	e.pkts = pkts
	e.drops = drops
	e.demotions = demotions
	t.insertSlot(h, root.idx)
	t.siftDown(0)
}

// MaxBytes returns the largest tracked byte count (0 when empty).
func (t *Table) MaxBytes() uint64 {
	var top uint64
	for _, nd := range t.heap[:t.n] {
		top = max(top, nd.bytes)
	}
	return top
}

// AppendSamples appends the live entries to dst, unsorted.
func (t *Table) AppendSamples(dst []Sample) []Sample {
	for i := 0; i < t.n; i++ {
		e := &t.entries[i]
		dst = append(dst, Sample{
			Key: e.key, Bytes: t.heap[t.pos[i]].bytes, Pkts: e.pkts,
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
