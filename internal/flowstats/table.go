package flowstats

import (
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

// heapNode is one heap slot: an entry's byte count (its ranking
// counter, kept here so sifts compare contiguous memory) and the
// entry's index.
type heapNode struct {
	bytes uint64
	idx   int32
}

// Table is a space-saving top-K heavy-hitter table: K preallocated
// entries, a keyhash.Index from key to entry (no Go map — the hot path
// must not hash through runtime map code or allocate), and a min-heap
// over the ranking counter so eviction of the current minimum is
// O(log K). Keys are sender addresses, so the index hash is keyed per
// table; slot placement never reaches samples or merges, which stay
// deterministic.
type Table struct {
	k       int
	n       int
	entries []entry
	heap    []heapNode // min-heap by bytes
	pos     []int32    // entry index -> heap position
	idx     keyhash.Index
}

// Init sizes the table for k tracked senders. It is the only method
// that allocates.
func (t *Table) Init(k int) {
	if k < 1 {
		k = 1
	}
	t.k = k
	t.n = 0
	t.entries = make([]entry, k)
	t.heap = make([]heapNode, k)
	t.pos = make([]int32, k)
	t.idx = keyhash.NewIndex(k, tableIndexFactor)
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.n }

// K returns the table's capacity.
func (t *Table) K() int { return t.k }

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
	if idx := t.idx.Find(uint64(k)); idx >= 0 {
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
		t.idx.Insert(uint64(k), idx)
		t.heapPush(idx, bytes)
		return
	}
	if bytes == 0 {
		return
	}
	root := &t.heap[0]
	e := &t.entries[root.idx]
	t.idx.Delete(uint64(e.key))
	e.err = root.bytes
	e.key = k
	root.bytes += bytes
	e.pkts = pkts
	e.drops = drops
	e.demotions = demotions
	t.idx.Insert(uint64(k), root.idx)
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
