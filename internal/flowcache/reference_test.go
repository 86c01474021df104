package flowcache

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"testing"

	"tva/internal/keyhash"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// refCache is the flow cache as it was before the open-addressed index:
// a Go map for lookup and container/heap for the lazy TTL heap (the
// free list is left out; it only saves allocations). The differential
// test and FuzzCacheOps hold Cache to it operation by operation.
type refCache struct {
	max     int
	entries map[Key]*refEntry
	byTTL   refHeap

	Creates, Hits, Misses, Evictions, AdmitFailures uint64
}

type refEntry struct {
	Key       Key
	Nonce     uint64
	Cap       uint64
	N         int64
	TSec      uint8
	Expiry    tvatime.Time
	Bytes     int64
	TTLExpire tvatime.Time

	heapKey tvatime.Time
	dead    bool
}

func newRef(max int) *refCache {
	return &refCache{max: max, entries: make(map[Key]*refEntry, max)}
}

func (c *refCache) Lookup(src, dst packet.Addr) *refEntry {
	e := c.entries[Key{src, dst}]
	if e != nil {
		c.Hits++
	} else {
		c.Misses++
	}
	return e
}

func (c *refCache) Create(key Key, nonce, cap uint64, n int64, tsec uint8, expiry tvatime.Time, l int, now tvatime.Time) *refEntry {
	if int64(l) > n || !now.Before(expiry) {
		return nil
	}
	if old := c.entries[key]; old != nil {
		delete(c.entries, old.Key)
		old.dead = true
	}
	if len(c.entries) >= c.max && !c.evictExpired(now) {
		c.AdmitFailures++
		return nil
	}
	e := &refEntry{
		Key: key, Nonce: nonce, Cap: cap, N: n, TSec: tsec, Expiry: expiry,
		Bytes:     int64(l),
		TTLExpire: now.Add(ttlDelta(l, n, tsec)),
	}
	c.entries[key] = e
	e.heapKey = e.TTLExpire
	heap.Push(&c.byTTL, e)
	c.Creates++
	c.maybeCompact()
	return e
}

func (c *refCache) Charge(e *refEntry, l int, now tvatime.Time) bool {
	if !now.Before(e.Expiry) || e.Bytes+int64(l) > e.N {
		return false
	}
	e.Bytes += int64(l)
	e.TTLExpire = e.TTLExpire.Add(ttlDelta(l, e.N, e.TSec))
	if e.TTLExpire < now {
		e.TTLExpire = now.Add(ttlDelta(l, e.N, e.TSec))
	}
	return true
}

func (c *refCache) Replace(e *refEntry, nonce, cap uint64, n int64, tsec uint8, expiry tvatime.Time, l int, now tvatime.Time) bool {
	if int64(l) > n || !now.Before(expiry) {
		return false
	}
	e.Nonce, e.Cap, e.N, e.TSec, e.Expiry, e.Bytes = nonce, cap, n, tsec, expiry, int64(l)
	if newTTL := now.Add(ttlDelta(l, n, tsec)); newTTL > e.TTLExpire {
		e.TTLExpire = newTTL
	}
	return true
}

func (c *refCache) Flush() {
	c.byTTL = c.byTTL[:0]
	clear(c.entries)
}

func (c *refCache) evictExpired(now tvatime.Time) bool {
	for len(c.byTTL) > 0 {
		top := c.byTTL[0]
		if top.dead {
			heap.Pop(&c.byTTL)
			continue
		}
		if top.heapKey != top.TTLExpire {
			top.heapKey = top.TTLExpire
			heap.Fix(&c.byTTL, 0)
			continue
		}
		if top.TTLExpire.After(now) {
			return false
		}
		heap.Pop(&c.byTTL)
		delete(c.entries, top.Key)
		c.Evictions++
		return true
	}
	return false
}

func (c *refCache) maybeCompact() {
	if len(c.byTTL) <= 2*len(c.entries)+64 {
		return
	}
	live := c.byTTL[:0]
	for _, e := range c.byTTL {
		if !e.dead {
			e.heapKey = e.TTLExpire
			live = append(live, e)
		}
	}
	c.byTTL = live
	heap.Init(&c.byTTL)
}

type refHeap []*refEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].heapKey < h[j].heapKey }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// sameEntry reports whether a cache entry and a reference entry hold
// the same flow state (nil matches nil).
func sameEntry(e *Entry, r *refEntry) bool {
	if e == nil || r == nil {
		return e == nil && r == nil
	}
	return e.Key == r.Key && e.Nonce == r.Nonce && e.Cap == r.Cap && e.N == r.N &&
		e.TSec == r.TSec && e.Expiry == r.Expiry && e.Bytes == r.Bytes && e.TTLExpire == r.TTLExpire
}

// opsKeys is the fuzz/differential key space: small, so flows collide,
// re-create and evict one another.
const opsKeys = 16

func opsKey(b byte) Key {
	k := int(b) % opsKeys
	return Key{Src: packet.Addr(k%8 + 1), Dst: packet.Addr(k/8 + 1)}
}

// opsSeed maps the first input byte to a fixed index seed, so a
// failing input reproduces its slot layout.
func opsSeed(b byte) keyhash.Seed {
	return keyhash.FromKeys(uint64(b)*0x9E3779B97F4A7C15, uint64(b)^0xC2B2AE3D27D4EB4F)
}

// cacheOps runs the operation sequence encoded in data against a Cache
// and the reference and returns the first disagreement. data[0] picks
// the index seed, data[1] the capacity (1..24: above the 16 keys the
// cache never fills, so re-created flows pile up dead heap nodes until
// the heap compacts), and each following
// 3-byte group [op, key, arg] is one Create, Lookup, Charge, Replace,
// clock advance or Flush. Coarse parameters make equal TTLs — heap
// ties — common.
func cacheOps(data []byte) error {
	if len(data) < 2 {
		return nil
	}
	max := 1 + int(data[1])%24
	c, ref := New(max), newRef(max)
	c.seed = opsSeed(data[0])
	now := at(1)
	ns := [...]int64{1000, 4096, 32768}
	tsecs := [...]uint8{1, 2, 10}
	for step, p := 0, data[2:]; len(p) >= 3; step, p = step+1, p[3:] {
		op, key, arg := p[0]%16, opsKey(p[1]), p[2]
		n, tsec := ns[arg/4%3], tsecs[arg/12%3]
		expiry := now.Add(tvatime.Duration(tsec) * tvatime.Second)
		if arg >= 240 {
			expiry = now // already expired
		}
		l := 40 * (1 + int(arg%4))
		var what string
		switch {
		case op < 4:
			what = "Create"
			got := c.Create(key, uint64(arg), uint64(op), n, tsec, expiry, l, now)
			want := ref.Create(key, uint64(arg), uint64(op), n, tsec, expiry, l, now)
			if !sameEntry(got, want) {
				return fmt.Errorf("step %d Create(%v): got %+v, want %+v", step, key, got, want)
			}
		case op < 7:
			what = "Lookup"
			got, want := c.Lookup(key.Src, key.Dst), ref.Lookup(key.Src, key.Dst)
			if !sameEntry(got, want) {
				return fmt.Errorf("step %d Lookup(%v): got %+v, want %+v", step, key, got, want)
			}
		case op < 11:
			e, r := c.Lookup(key.Src, key.Dst), ref.Lookup(key.Src, key.Dst)
			if e == nil || r == nil {
				if !sameEntry(e, r) {
					return fmt.Errorf("step %d Lookup(%v): got %+v, want %+v", step, key, e, r)
				}
				what = "Lookup"
				break
			}
			var got, want bool
			if op < 10 {
				what = "Charge"
				l = 40 * (1 + int(arg%8))
				got, want = c.Charge(e, l, now), ref.Charge(r, l, now)
			} else {
				what = "Replace"
				got = c.Replace(e, uint64(arg)+1, 9, n, tsec, expiry, l, now)
				want = ref.Replace(r, uint64(arg)+1, 9, n, tsec, expiry, l, now)
			}
			if got != want {
				return fmt.Errorf("step %d %s(%v): got %v, want %v", step, what, key, got, want)
			}
		case op < 15 || arg >= 8: // Flush is rare, so dead nodes can pile up
			what = "advance"
			now = now.Add(tvatime.Duration(arg) * tvatime.Millisecond)
		default:
			what = "Flush"
			c.Flush()
			ref.Flush()
		}
		if err := sameState(c, ref); err != nil {
			return fmt.Errorf("step %d after %s(%v): %v", step, what, key, err)
		}
	}
	return nil
}

// sameState compares everything observable plus the heap layout: the
// statistics, every live entry (so every eviction victim, ties
// included), and node by node the TTL heap, whose order decides the
// next victims. It also checks the index's own invariants.
func sameState(c *Cache, ref *refCache) error {
	if c.Creates != ref.Creates || c.Hits != ref.Hits || c.Misses != ref.Misses ||
		c.Evictions != ref.Evictions || c.AdmitFailures != ref.AdmitFailures {
		return fmt.Errorf("stats c=%d h=%d m=%d e=%d f=%d, want c=%d h=%d m=%d e=%d f=%d",
			c.Creates, c.Hits, c.Misses, c.Evictions, c.AdmitFailures,
			ref.Creates, ref.Hits, ref.Misses, ref.Evictions, ref.AdmitFailures)
	}
	if c.Len() != len(ref.entries) {
		return fmt.Errorf("Len %d, want %d", c.Len(), len(ref.entries))
	}
	indexed := 0
	for i, e := range c.slots {
		if e == nil {
			continue
		}
		indexed++
		if !sameEntry(e, ref.entries[e.Key]) {
			return fmt.Errorf("slot %d holds %+v, reference %+v", i, e, ref.entries[e.Key])
		}
		if e.dead {
			return fmt.Errorf("slot %d holds a dead entry", i)
		}
		if e.home != c.home(e.Key) {
			return fmt.Errorf("slot %d: %v stored home %d, hashes to %d", i, e.Key, e.home, c.home(e.Key))
		}
		if c.slots[c.find(e.Key, e.home)] != e {
			return fmt.Errorf("slot %d: %v unreachable from its home", i, e.Key)
		}
	}
	if indexed != c.n {
		return fmt.Errorf("%d indexed entries, n = %d", indexed, c.n)
	}
	if len(c.byTTL) != len(ref.byTTL) {
		return fmt.Errorf("heap holds %d nodes, want %d", len(c.byTTL), len(ref.byTTL))
	}
	for i, nd := range c.byTTL {
		r := ref.byTTL[i]
		if nd.key != r.heapKey || nd.e.Key != r.Key || nd.e.dead != r.dead {
			return fmt.Errorf("heap[%d] = {%v %v dead=%v}, want {%v %v dead=%v}",
				i, nd.key, nd.e.Key, nd.e.dead, r.heapKey, r.Key, r.dead)
		}
	}
	return nil
}

// wrapCorpus builds inputs whose probe chains run past the last slot
// and continue at slot 0: for a small capacity it finds a seed byte
// under which two keys share the last slot as their home and a third
// starts at the last slot or at slot 0 (so its probe crosses the wrapped
// chain), then creates, evicts and re-creates those flows. The returned inputs are
// fuzz seeds; TestCacheOpsWrap checks that they really wrap.
func wrapCorpus() [][]byte {
	var out [][]byte
	for _, max := range []int{2, 4, 8} {
		for s := 0; s < 256; s++ {
			c := New(max)
			c.seed = opsSeed(byte(s))
			var last, first []byte
			for k := byte(0); k < opsKeys; k++ {
				switch c.home(opsKey(k)) {
				case c.mask:
					last = append(last, k)
				case 0:
					first = append(first, k)
				}
			}
			if len(last) < 2 || len(last)+len(first) < 3 {
				continue
			}
			ks := append(last, first...)[:3]
			in := []byte{byte(s), byte(max - 1)}
			for _, k := range ks {
				in = append(in, 0, k, 1) // Create, short ttl
			}
			in = append(in, 4, ks[2], 0) // Lookup the wrapped flow
			in = append(in, 11, 0, 50)   // advance past the ttls
			for k := byte(0); k < opsKeys; k++ {
				in = append(in, 1, k, 1+k%4) // churn: evict and re-create
			}
			in = append(in, 7, ks[2], 2, 10, ks[1], 20, 4, ks[0], 0, 15, 0, 0, 0, ks[2], 3)
			out = append(out, in)
			break
		}
	}
	return out
}

func TestCacheOpsWrap(t *testing.T) {
	corpus := wrapCorpus()
	if len(corpus) != 3 {
		t.Fatalf("found wrap seeds for %d capacities, want 3", len(corpus))
	}
	for _, in := range corpus {
		// The first three creates must leave a chain that wraps.
		c := New(1 + int(in[1])%24)
		c.seed = opsSeed(in[0])
		for _, p := range [][]byte{in[2:5], in[5:8], in[8:11]} {
			c.Create(opsKey(p[1]), 1, 1, 1000, 1, at(5), 40, at(1))
		}
		if c.slots[0] == nil || c.home(c.slots[0].Key) != c.mask {
			t.Errorf("seed %d, max %d: slot 0 does not continue a chain from the last slot", in[0], c.max)
		}
		if err := cacheOps(in); err != nil {
			t.Errorf("seed %d, max %d: %v", in[0], c.max, err)
		}
	}
}

// TestCacheMatchesReference runs long random operation sequences
// through cacheOps.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 2+3*600)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		if err := cacheOps(data); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzCacheOps holds the open-addressed cache to the map + container/heap
// reference on fuzzed operation sequences.
func FuzzCacheOps(f *testing.F) {
	for _, in := range wrapCorpus() {
		f.Add(in)
	}
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 1, 11, 0, 60, 0, 3, 1})
	compact := []byte{3, 23}
	for i := 0; i < 120; i++ { // one flow re-created until the heap compacts
		compact = append(compact, 0, 5, byte(i%4), 11, 0, 1)
	}
	f.Add(compact)
	f.Add([]byte{7, 7, 0, 1, 0, 0, 2, 0, 0, 3, 0, 7, 1, 3, 10, 2, 200, 15, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := cacheOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
