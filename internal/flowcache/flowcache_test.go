package flowcache

import (
	"math/rand"
	"testing"

	"tva/internal/keyhash"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

func at(sec float64) tvatime.Time { return tvatime.FromSeconds(sec) }

func key(i int) Key { return Key{Src: packet.Addr(i), Dst: 1} }

func TestCreateLookupCharge(t *testing.T) {
	c := New(10)
	e := c.Create(key(1), 42, 43, 32*1024, 10, at(10), 1000, at(0))
	if e == nil {
		t.Fatal("Create failed")
	}
	if got := c.Lookup(packet.Addr(1), 1); got != e {
		t.Fatal("Lookup did not find the entry")
	}
	if e.Bytes != 1000 {
		t.Errorf("first packet not charged: %d", e.Bytes)
	}
	if !c.Charge(e, 2000, at(0.1)) {
		t.Error("Charge within N failed")
	}
	if e.Bytes != 3000 {
		t.Errorf("Bytes = %d, want 3000", e.Bytes)
	}
}

func TestByteLimitEnforced(t *testing.T) {
	c := New(10)
	n := int64(10_000)
	e := c.Create(key(1), 1, 2, n, 10, at(10), 4000, at(0))
	if e == nil {
		t.Fatal("Create failed")
	}
	if !c.Charge(e, 4000, at(0.1)) {
		t.Error("charge to 8000/10000 should pass")
	}
	if c.Charge(e, 4000, at(0.2)) {
		t.Error("charge beyond N should fail")
	}
	// A smaller packet that still fits must pass (no sticky failure).
	if !c.Charge(e, 2000, at(0.3)) {
		t.Error("charge back within N should pass")
	}
}

func TestExpiryEnforced(t *testing.T) {
	c := New(10)
	e := c.Create(key(1), 1, 2, 1<<20, 5, at(5), 100, at(0))
	if e == nil {
		t.Fatal("Create failed")
	}
	if !c.Charge(e, 100, at(4.9)) {
		t.Error("charge before expiry failed")
	}
	if c.Charge(e, 100, at(5.1)) {
		t.Error("charge after expiry succeeded")
	}
}

func TestCreateRejectsOversizedFirstPacket(t *testing.T) {
	c := New(10)
	if c.Create(key(1), 1, 2, 500, 10, at(10), 1000, at(0)) != nil {
		t.Error("first packet larger than N should not create state")
	}
}

func TestEvictionAdmitsNewFlows(t *testing.T) {
	c := New(2)
	// Two slow flows whose ttl expires almost immediately:
	// ttl delta = L*T/N = 100*10/1MB ≈ 1ms.
	c.Create(key(1), 1, 1, 1<<20, 10, at(10), 100, at(0))
	c.Create(key(2), 2, 2, 1<<20, 10, at(10), 100, at(0))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// At t=1s both ttls are long past: a third flow must evict one.
	if c.Create(key(3), 3, 3, 1<<20, 10, at(10), 100, at(1)) == nil {
		t.Fatal("Create with expired entries available failed")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (bounded)", c.Len())
	}
	if c.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Evictions)
	}
}

func TestAdmitFailsWhenAllLive(t *testing.T) {
	c := New(2)
	// Fast flows: ttl delta = 1000*10/10KB = 1s each, still live.
	c.Create(key(1), 1, 1, 10*1024, 10, at(10), 1000, at(0))
	c.Create(key(2), 2, 2, 10*1024, 10, at(10), 1000, at(0))
	if c.Create(key(3), 3, 3, 10*1024, 10, at(10), 1000, at(0.5)) != nil {
		t.Error("Create should fail when the cache is full of live entries")
	}
	if c.AdmitFailures != 1 {
		t.Errorf("AdmitFailures = %d, want 1", c.AdmitFailures)
	}
}

func TestReplaceInstallsRenewal(t *testing.T) {
	c := New(4)
	e := c.Create(key(1), 1, 100, 1000, 10, at(10), 900, at(0))
	if e == nil {
		t.Fatal("Create failed")
	}
	// Nearly exhausted; renewal replaces the authorization.
	if !c.Replace(e, 2, 200, 32*1024, 10, at(20), 500, at(1)) {
		t.Fatal("Replace failed")
	}
	if e.Nonce != 2 || e.Cap != 200 || e.N != 32*1024 || e.Bytes != 500 {
		t.Errorf("Replace did not reset entry: %+v", e)
	}
	if !c.Charge(e, 1000, at(1.1)) {
		t.Error("charge under renewed N failed")
	}
}

func TestCreateOverExisting(t *testing.T) {
	c := New(4)
	c.Create(key(1), 1, 1, 1000, 10, at(10), 100, at(0))
	e := c.Create(key(1), 2, 2, 2000, 10, at(10), 100, at(0.5))
	if e == nil || e.Nonce != 2 {
		t.Fatal("Create over an existing key should replace it")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestBound(t *testing.T) {
	// §3.6 example: gigabit link, (N/T)min = 4KB/10s → 312,500 records.
	got := Bound(1_000_000_000, 4096, 10)
	if got < 300_000 || got > 320_000 {
		t.Errorf("Bound(1Gbps, 4KB/10s) = %d, want ≈312500", got)
	}
}

// TestByteBoundTheorem verifies §3.6's central claim: no matter how the
// router manages (evicts/recreates) state, one capability forwards at
// most 2N bytes before it expires — and exactly at most N if its state
// is never reclaimed.
func TestByteBoundTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nBytes = 32 * 1024
	const tsec = 10

	for trial := 0; trial < 200; trial++ {
		c := New(1) // maximum memory pressure: a single slot
		var forwarded int64
		expireAt := at(tsec)
		now := at(0)
		for now.Before(expireAt) {
			l := 200 + rng.Intn(1400)
			e := c.Lookup(1, 2)
			ok := false
			if e != nil {
				ok = c.Charge(e, l, now)
			} else {
				// Adversarial competing flow may have taken the slot;
				// try to (re)create ours, evicting if allowed.
				ok = c.Create(Key{1, 2}, 7, 7, nBytes, tsec, expireAt, l, now) != nil
			}
			if ok {
				forwarded += int64(l)
			}
			// Adversary: sometimes steal the slot with another flow
			// (only possible when our ttl has expired).
			if rng.Intn(3) == 0 {
				c.Create(Key{9, 9}, 8, 8, nBytes, tsec, expireAt, l, now)
			}
			now = now.Add(tvatime.Duration(rng.Intn(40)) * tvatime.Millisecond)
		}
		if forwarded > 2*nBytes {
			t.Fatalf("trial %d: forwarded %d > 2N = %d", trial, forwarded, 2*nBytes)
		}
	}
}

// TestByteBoundNoPressure: without eviction the limit is exactly N.
func TestByteBoundNoPressure(t *testing.T) {
	c := New(100)
	const nBytes = 32 * 1024
	expire := at(10)
	var forwarded int64
	now := at(0)
	e := c.Create(Key{1, 2}, 7, 7, nBytes, 10, expire, 1000, now)
	forwarded += 1000
	for i := 0; i < 1000; i++ {
		now = now.Add(tvatime.Millisecond)
		if c.Charge(e, 1000, now) {
			forwarded += 1000
		}
	}
	if forwarded > nBytes {
		t.Errorf("forwarded %d > N = %d without memory pressure", forwarded, nBytes)
	}
}

// TestStateBound verifies the state theorem: a link of capacity C can
// sustain at most C/(N/T)min flows with live ttl, so a cache sized by
// Bound never refuses admission for legitimate traffic patterns.
func TestStateBound(t *testing.T) {
	const linkBps = 10_000_000 // 10 Mb/s
	const minN, minT = 4096, 10
	bound := Bound(linkBps, minN, minT)
	c := New(bound)

	// Worst case: attackers open as many minimum-rate flows as the
	// link can carry, each sending one min-size packet then idling.
	rng := rand.New(rand.NewSource(1))
	now := at(0)
	bytesPerSec := linkBps / 8
	flow := 0
	for sec := 0; sec < 30; sec++ {
		budget := bytesPerSec
		for budget > 0 {
			l := 40
			budget -= l
			flow++
			if c.Create(Key{packet.Addr(flow), 2}, 1, 1, minN, minT, now.Add(minT*tvatime.Second), l, now) == nil {
				// Admission failure is only legal if the cache is at
				// its bound with live entries — which cannot happen
				// when arrivals respect link capacity (the theorem).
				t.Fatalf("admission failed at flow %d, cache %d/%d", flow, c.Len(), c.Max())
			}
			now = now.Add(tvatime.Duration(int64(l) * 8 * int64(tvatime.Second) / linkBps))
			_ = rng
		}
	}
	if c.Len() > bound {
		t.Errorf("cache grew past bound: %d > %d", c.Len(), bound)
	}
}

// maxProbe returns the longest probe walk (slots examined to reach an
// entry from its home) in c's index.
func maxProbe(c *Cache) uint32 {
	var m uint32
	for i, e := range c.slots {
		if e != nil {
			m = max(m, (uint32(i)-c.home(e.Key))&c.mask+1)
		}
	}
	return m
}

// TestHashFloodProbeLength inserts 4096 flows that an unkeyed
// multiply-shift (the fixed-constant hash flowstats used to have) sends
// to one slot, and requires short probe chains under the keyed hash
// for 256 fixed seeds, against the 4096 of a collapsed chain: in a
// cache the flows fill (index load 1/4, the most an index carries) the
// longest chain stays at 32 or below. A single multiply-fold with the
// key in one operand fails here: about one seed in 64 folds this
// pattern onto a few dozen homes.
func TestHashFloodProbeLength(t *testing.T) {
	const n = 4096
	keys := make([]Key, n)
	homes := map[uint64]bool{}
	for i := range keys {
		keys[i] = Key{Src: packet.Addr(i << 20), Dst: 7}
		x := uint64(keys[i].Src)<<32 | uint64(keys[i].Dst)
		homes[(x*0x9E3779B97F4A7C15)>>32&(2*n-1)] = true
	}
	if len(homes) != 1 {
		t.Fatalf("pattern spreads over %d homes under multiply-shift; want one", len(homes))
	}
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < 256; s++ {
		c := New(n)
		c.seed = keyhash.FromKeys(rng.Uint64(), rng.Uint64())
		for _, k := range keys {
			if c.Create(k, 1, 1, 1<<20, 60, at(60), 40, at(0)) == nil {
				t.Fatal("Create failed below capacity")
			}
		}
		if m := maxProbe(c); m > 32 {
			t.Errorf("seed %d: longest probe %d slots, want <= 32", s, m)
		}
	}
}

func TestCachesDrawDistinctSeeds(t *testing.T) {
	a, b := New(16), New(16)
	if a.seed == b.seed {
		t.Fatal("two caches share one hash seed")
	}
	if a.home(key(1)) == b.home(key(1)) && a.home(key(2)) == b.home(key(2)) &&
		a.home(key(3)) == b.home(key(3)) && a.home(key(4)) == b.home(key(4)) {
		t.Error("two caches place four flows identically")
	}
}

// TestSteadyStateNoAllocs pins the per-packet operations at zero
// allocations once the cache is warm: Lookup, Charge, and a Create that
// first evicts an expired entry (entries and heap nodes are recycled).
func TestSteadyStateNoAllocs(t *testing.T) {
	const n = 256
	c := New(n)
	now := at(0)
	for i := 0; i < n; i++ {
		c.Create(key(i+1), 1, 1, 1<<20, 60, at(60), 40, now)
	}
	e := c.Lookup(packet.Addr(1), 1)
	if got := testing.AllocsPerRun(100, func() {
		if c.Lookup(packet.Addr(7), 1) == nil || c.Lookup(packet.Addr(n+7), 1) != nil {
			t.Fatal("lookup")
		}
		c.Charge(e, 40, now)
	}); got != 0 {
		t.Errorf("Lookup+Charge allocate %.1f/op", got)
	}
	next := n + 1
	now = now.Add(tvatime.Second) // every ttl has run out
	if got := testing.AllocsPerRun(1000, func() {
		now = now.Add(10 * tvatime.Microsecond)
		if c.Create(key(next), 1, 1, 1<<20, 60, at(60), 40, now) == nil {
			t.Fatal("create at the bound failed")
		}
		next++
	}); got != 0 {
		t.Errorf("Create with eviction allocates %.1f/op", got)
	}
	if c.Len() != n || c.Evictions == 0 {
		t.Errorf("Len %d, Evictions %d: creates did not evict", c.Len(), c.Evictions)
	}
}

func BenchmarkLookupCharge(b *testing.B) {
	c := New(1 << 16)
	now := at(0)
	e := c.Create(Key{1, 2}, 1, 1, 1<<30, 10, at(10), 1000, now)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := c.Lookup(1, 2); got != e {
			b.Fatal("lookup failed")
		}
		c.Charge(e, 0, now)
	}
}
