// Package flowcache implements TVA's bounded router state (paper §3.6).
//
// A router keeps a cache entry only for flows (sender, destination
// pairs) with valid capabilities that send faster than N/T. Each entry
// carries a time-to-live measured in "time equivalents" of the bytes
// charged to it: creating or charging an entry with an L-byte packet
// extends its ttl by L*T/N. An entry whose ttl has passed may be
// reclaimed to admit a new flow. This bounds the bytes sent with one
// capability to at most 2N no matter how the cache is managed, and
// bounds the number of live entries to C/(N/T)min for an input link of
// capacity C (see the theorem in §3.6; TestByteBound* verify it).
//
// Entries live in one slice, addressed by int32 handles, and a
// keyhash.Index maps each live flow to its handle: a lookup is a keyed
// hash and a short walk over adjacent slots with no runtime map code.
// The index has four slots per entry (load <= 1/4: the keyed hash
// places flows at random, and at load 1/2 collisions cost a
// create-with-eviction a third more). Flow keys are source addresses
// an attacker can spoof, so the hash is keyed per cache: an attacker
// who does not know the seed cannot aim keys at one probe chain. The
// cache holds no pointers, so the garbage collector does not scan it.
//
// Eviction order is tracked with a lazy min-heap of (key, handle)
// nodes: charging a flow only advances its TTLExpire (a monotonic
// increase), so a node's key is allowed to go stale and is repaired
// when the node surfaces at the top. That keeps the per-packet fast
// path (Lookup+Charge) free of heap operations — the property behind
// Table 1's very cheap "regular packet with cached entry" row — and
// makes reclaiming an expired entry on Create one pop. The heap sifts
// exactly as container/heap does, so ties break the same way.
package flowcache

import (
	"tva/internal/keyhash"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// Key identifies a flow: TVA defines flows on a sender-to-destination
// IP address basis (§3.5).
type Key struct {
	Src, Dst packet.Addr
}

// Entry is the per-flow state of §4.3: the validated capability, the
// flow nonce, the authorization (N, T as an absolute expiry), and the
// byte count and ttl of the bounded-state algorithm.
type Entry struct {
	Key   Key
	Nonce uint64
	// Cap is this router's own capability value for the flow, kept so
	// a renewal packet presenting new capabilities can be told apart
	// from a replay of the old one.
	Cap    uint64
	N      int64        // authorized bytes
	TSec   uint8        // authorized period, seconds
	Expiry tvatime.Time // first instant the capability is invalid (exclusive bound)

	Bytes     int64        // bytes charged so far
	TTLExpire tvatime.Time // absolute time the ttl reaches zero

	// dead marks an entry removed from the index whose heap node has
	// not been drained yet.
	dead bool
	// freeNext links reclaimed entries into the cache's free list.
	freeNext int32
}

// indexFactor is the index's slots per entry (load <= 1/4).
const indexFactor = 4

// Cache is a fixed-capacity flow cache. It is not safe for concurrent
// use; routers own one per forwarding context and serialize access.
type Cache struct {
	max int
	idx keyhash.Index // live flows -> handles into entries
	// entries grows by one on a free-list miss, so it tracks the peak
	// number of flows. Lookup returns pointers into it, which is why
	// they must not be retained across cache mutations (routers hold
	// them only within a single packet's processing).
	entries []Entry
	byTTL   ttlHeap
	// free heads the list of reclaimed handles (linked through
	// freeNext, -1 ends it) that Create reuses, so steady-state flow
	// churn does not grow entries.
	free int32

	// Stats.
	Creates, Hits, Misses, Evictions, AdmitFailures uint64
}

// New returns a cache that holds at most max entries. The paper sizes
// max at C/(N/T)min for link capacity C; Bound computes that.
func New(max int) *Cache {
	if max <= 0 {
		max = 1
	}
	return &Cache{max: max, idx: keyhash.NewIndex(max, indexFactor), free: -1}
}

// Bound returns the entry count needed so that a link of linkBps can
// never exhaust the cache, given the architectural minimum sending
// rate (N/T)min expressed as minN bytes per minT seconds (§3.6: e.g.
// 4 KB / 10 s on a gigabit link needs 312,500 records).
func Bound(linkBps int64, minN int64, minTSec int64) int {
	bytesPerSec := linkBps / 8
	minRate := minN / minTSec
	if minRate <= 0 {
		minRate = 1
	}
	n := bytesPerSec / minRate
	if n < 1 {
		n = 1
	}
	return int(n)
}

// Len returns the number of live entries.
func (c *Cache) Len() int { return c.idx.Len() }

// Max returns the capacity.
func (c *Cache) Max() int { return c.max }

// indexKey packs a flow key into the index's key space.
//
//tva:hotpath
func indexKey(k Key) uint64 { return uint64(k.Src)<<32 | uint64(k.Dst) }

// Lookup finds the entry for a flow, or nil.
//
//tva:hotpath
func (c *Cache) Lookup(src, dst packet.Addr) *Entry {
	h := c.idx.Find(indexKey(Key{src, dst}))
	if h < 0 {
		c.Misses++
		return nil
	}
	c.Hits++
	return &c.entries[h]
}

// ttlDelta converts a packet length to its time-equivalent under the
// entry's rate N/T: L * T / N (§3.6).
func ttlDelta(l int, n int64, tsec uint8) tvatime.Duration {
	if n <= 0 {
		return 0
	}
	return tvatime.Duration(int64(l) * int64(tsec) * int64(tvatime.Second) / n)
}

// Create admits a new flow, evicting an expired-ttl entry if the cache
// is full. The first packet (length l) is charged. It returns nil if
// the cache is full of entries whose ttl has not yet reached zero
// (which cannot happen when the cache is sized with Bound) or if the
// first packet alone exceeds the authorization.
//
//tva:hotpath
func (c *Cache) Create(key Key, nonce, cap uint64, n int64, tsec uint8, expiry tvatime.Time, l int, now tvatime.Time) *Entry {
	if int64(l) > n || !now.Before(expiry) {
		return nil
	}
	ik := indexKey(key)
	if old := c.idx.Find(ik); old >= 0 {
		// Re-creating a live flow: the new entry replaces the old one
		// (the cache cannot be over capacity after dropping it); the
		// old heap node is drained lazily.
		c.entries[old].dead = true
		c.idx.Delete(ik)
	} else if c.idx.Len() >= c.max && !c.evictExpired(now) {
		c.AdmitFailures++
		return nil
	}
	h := c.newEntry()
	e := &c.entries[h]
	*e = Entry{
		Key:       key,
		Nonce:     nonce,
		Cap:       cap,
		N:         n,
		TSec:      tsec,
		Expiry:    expiry,
		Bytes:     int64(l),
		TTLExpire: now.Add(ttlDelta(l, n, tsec)),
	}
	c.idx.Insert(ik, h)
	c.byTTL.push(ttlNode{key: e.TTLExpire, h: h})
	c.Creates++
	c.maybeCompact()
	return e
}

// Charge accounts an l-byte packet against an existing entry: it
// verifies the byte limit and expiry (§3.5's two router checks) and on
// success extends the ttl by the packet's time equivalent. It reports
// whether the packet is authorized. Charge never touches the heap
// (the key goes stale; eviction repairs it), keeping the hot path
// O(1).
//
//tva:hotpath
func (c *Cache) Charge(e *Entry, l int, now tvatime.Time) bool {
	if !now.Before(e.Expiry) || e.Bytes+int64(l) > e.N {
		return false
	}
	e.Bytes += int64(l)
	e.TTLExpire = e.TTLExpire.Add(ttlDelta(l, e.N, e.TSec))
	if e.TTLExpire < now {
		// The ttl only accumulates while the flow is backlogged; an
		// idle flow's ttl restarts from now (decrements stop at zero).
		e.TTLExpire = now.Add(ttlDelta(l, e.N, e.TSec))
	}
	return true
}

// Replace installs a renewed capability in an existing entry (§4.3:
// "this could be the first packet with a renewed capability, and so the
// capability is checked and if valid, replaced in the cache entry").
// The byte count restarts under the new authorization with the packet
// charged.
func (c *Cache) Replace(e *Entry, nonce, cap uint64, n int64, tsec uint8, expiry tvatime.Time, l int, now tvatime.Time) bool {
	if int64(l) > n || !now.Before(expiry) {
		return false
	}
	e.Nonce = nonce
	e.Cap = cap
	e.N = n
	e.TSec = tsec
	e.Expiry = expiry
	e.Bytes = int64(l)
	if newTTL := now.Add(ttlDelta(l, n, tsec)); newTTL > e.TTLExpire {
		// Keep TTLExpire monotonic so the lazy heap key stays a lower
		// bound; a shorter renewed ttl only delays reclaimability,
		// which is always permitted (§3.6: reclaiming is optional).
		e.TTLExpire = newTTL
	}
	return true
}

// Flush drops every entry — the crash/restart model of §3.6: router
// flow state is soft, so a rebooted router comes up with an empty
// cache and flows revalidate with the capabilities they carry (or
// re-request). Reclaimed entries go to the free list; statistics
// survive the flush (they describe the process, not the boot).
func (c *Cache) Flush() {
	for _, nd := range c.byTTL {
		c.freePut(nd.h)
	}
	c.byTTL = c.byTTL[:0]
	c.idx.Clear()
}

// evictExpired reclaims the entry with the earliest ttl if that ttl
// has passed, making room for a new flow. Stale heap keys (from
// charges) are repaired as they surface; dead entries are drained.
// It reports whether it evicted.
//
//tva:hotpath
func (c *Cache) evictExpired(now tvatime.Time) bool {
	h := &c.byTTL
	for len(*h) > 0 {
		top := &(*h)[0]
		hnd := top.h
		e := &c.entries[hnd]
		if e.dead {
			h.pop()
			c.freePut(hnd)
			continue
		}
		if top.key != e.TTLExpire {
			// The entry was charged since it was ordered; re-sink it
			// under its current key.
			top.key = e.TTLExpire
			h.down(0)
			continue
		}
		if e.TTLExpire.After(now) {
			// The minimum lower bound is still live, so every entry
			// is live: nothing is reclaimable.
			return false
		}
		h.pop()
		c.idx.Delete(indexKey(e.Key))
		c.freePut(hnd)
		c.Evictions++
		return true
	}
	return false
}

// maybeCompact rebuilds the heap when dead nodes dominate, bounding
// memory at O(live entries).
//
//tva:hotpath
func (c *Cache) maybeCompact() {
	if len(c.byTTL) <= 2*c.idx.Len()+64 {
		return
	}
	live := c.byTTL[:0]
	for _, nd := range c.byTTL {
		if e := &c.entries[nd.h]; !e.dead {
			live = append(live, ttlNode{key: e.TTLExpire, h: nd.h})
		} else {
			c.freePut(nd.h)
		}
	}
	c.byTTL = live
	c.byTTL.init()
}

// newEntry pops a recycled handle off the free list, growing entries
// when the list is empty (at most once per peak concurrent flow
// count).
//
//tva:hotpath
func (c *Cache) newEntry() int32 {
	if h := c.free; h >= 0 {
		c.free = c.entries[h].freeNext
		return h
	}
	c.entries = append(c.entries, Entry{})
	return int32(len(c.entries) - 1)
}

// freePut pushes a reclaimed handle onto the free list for newEntry.
//
//tva:hotpath
func (c *Cache) freePut(h int32) {
	c.entries[h].freeNext = c.free
	c.free = h
}

// ttlNode is one heap slot: the key the entry was last ordered by (a
// lower bound on its TTLExpire, stale after charges) beside the
// entry's handle, so sifting compares contiguous keys.
type ttlNode struct {
	key tvatime.Time
	h   int32
}

// ttlHeap is a binary min-heap of nodes by key. Its sift steps are
// container/heap's (the hole is carried instead of swapped, which
// makes the same comparisons and leaves the same layout), so entries
// with equal keys surface in the same order as they always have.
type ttlHeap []ttlNode

// push adds nd and sifts it up (container/heap.Push).
//
//tva:hotpath
func (h *ttlHeap) push(nd ttlNode) {
	*h = append(*h, nd)
	h.up(len(*h) - 1)
}

// pop removes the root (container/heap.Pop): the last node moves to
// the root and sifts down.
//
//tva:hotpath
func (h *ttlHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s[n] = ttlNode{}
	*h = s[:n]
	if n > 0 {
		h.down(0)
	}
}

// init establishes heap order over arbitrary contents
// (container/heap.Init).
//
//tva:hotpath
func (h ttlHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// up sifts node j toward the root while it is smaller than its parent.
//
//tva:hotpath
func (h ttlHeap) up(j int) {
	nd := h[j]
	for j > 0 {
		p := (j - 1) / 2
		if nd.key >= h[p].key {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = nd
}

// down sifts node i toward the leaves while a child is smaller,
// preferring the left child on ties.
//
//tva:hotpath
func (h ttlHeap) down(i int) {
	n := len(h)
	nd := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n {
			j += b2i(h[r].key < h[l].key)
		}
		if h[j].key >= nd.key {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = nd
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
//
//tva:hotpath
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
