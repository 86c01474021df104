// Package keyhash is the open-addressed index behind the router state
// whose keys an attacker chooses: the flow cache (keyed by spoofable
// source/destination pairs) and the flowstats heavy-hitter table
// (keyed by source address and path identifier). Both map a uint64
// key to a handle into their own entry arrays through one Index.
//
// An Index is a power-of-two slot array with linear probing and
// backward-shift deletion (no tombstones). Each slot holds its key,
// the slot the key hashes to and the handle, so a probe never leaves
// the slot array and deletion never rehashes.
//
// The hash is keyed per index. With a fixed hash an attacker who can
// create entries — a colluding destination grants capabilities to as
// many spoofed sources as it likes — could pick keys that share one
// probe chain and turn every lookup into a linear scan. Each index
// draws its own seed, as Go maps do. The construction is the runtime's
// non-AES 64-bit hash (memhash64Fallback in runtime/hash64.go): two
// 64×64→128-bit multiply-folds, the key entering both operands of the
// first. A single fold with the key in one operand is not enough: for
// keys that differ only in their high bits its low output bits are
// linear in the key, and some seeds collapse a 4096-key pattern into
// one chain (TestHashFloodProbeLength).
package keyhash

import (
	"math/bits"
	"math/rand/v2"
)

// m5 is the runtime hash's final-round constant.
const m5 = 0x1d8e4e27c47d124f

// seed is one index's hash key.
type seed struct{ k0, k1 uint64 }

// sum hashes x; the low bits are suitable as a slot index.
//
//tva:hotpath
func (s seed) sum(x uint64) uint64 {
	return mix(m5^8, mix(x^s.k1, x^s.k0))
}

// mix multiplies a by b and folds the 128-bit product to 64 bits.
//
//tva:hotpath
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// slot is one index cell. h1 is the handle plus one, so the zero slot
// is empty; home is the slot the key hashes to.
type slot struct {
	key  uint64
	home uint32
	h1   int32
}

// Index maps uint64 keys to caller-owned int32 handles. It is not safe
// for concurrent use. Slot placement depends on the seed, which is
// random per index, but no method's result does.
type Index struct {
	slots []slot
	mask  uint32
	n     int
	seed  seed
}

// NewIndex returns an empty index with perKey slots for each of n keys,
// rounded up to a power of two, under a freshly drawn seed. The caller
// keeps at most n keys in it; perKey sets the load factor.
func NewIndex(n, perKey int) Index {
	size := 1 << bits.Len(uint(max(n, 1)*perKey-1))
	return Index{
		slots: make([]slot, size),
		mask:  uint32(size - 1),
		seed:  seed{k0: rand.Uint64(), k1: rand.Uint64()},
	}
}

// Len returns the number of keys in the index.
func (x *Index) Len() int { return x.n }

// home returns the slot key's probe chain starts at.
//
//tva:hotpath
func (x *Index) home(key uint64) uint32 {
	return uint32(x.seed.sum(key)) & x.mask
}

// probe returns the slot holding key, whose chain starts at home, or
// the empty slot that ends the chain (where key would go).
//
//tva:hotpath
func (x *Index) probe(key uint64, home uint32) uint32 {
	i := home
	for s := &x.slots[i]; s.h1 != 0 && s.key != key; s = &x.slots[i] {
		i = (i + 1) & x.mask
	}
	return i
}

// Find returns key's handle, or -1 when the key is absent.
//
//tva:hotpath
func (x *Index) Find(key uint64) int32 {
	h, _ := x.FindHome(key)
	return h
}

// FindHome is Find that also returns key's home, which InsertHome takes
// so that an absent key is hashed once. A home depends only on the key
// and the index, so other inserts and deletes leave it valid.
//
//tva:hotpath
func (x *Index) FindHome(key uint64) (int32, uint32) {
	home := x.home(key)
	return x.slots[x.probe(key, home)].h1 - 1, home // an empty slot's h1 is 0
}

// Insert adds key with handle h. The key must be absent, and the index
// must hold fewer keys than NewIndex's n.
//
//tva:hotpath
func (x *Index) Insert(key uint64, h int32) {
	x.InsertHome(key, x.home(key), h)
}

// InsertHome is Insert for a key whose home FindHome returned.
//
//tva:hotpath
func (x *Index) InsertHome(key uint64, home uint32, h int32) {
	x.slots[x.probe(key, home)] = slot{key: key, home: home, h1: h + 1}
	x.n++
}

// Delete removes key, if present, by backward-shift deletion: later
// members of the probe chain move up into the hole when the hole lies
// inside their own chain, so chains stay gap-free.
//
//tva:hotpath
func (x *Index) Delete(key uint64) {
	i := x.probe(key, x.home(key))
	if x.slots[i].h1 == 0 {
		return
	}
	for j := (i + 1) & x.mask; x.slots[j].h1 != 0; j = (j + 1) & x.mask {
		// Slot j's occupant may fill the hole at i only if its home is
		// cyclically at or before i.
		if (j-x.slots[j].home)&x.mask >= (j-i)&x.mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = slot{}
	x.n--
}

// Clear removes every key.
func (x *Index) Clear() {
	clear(x.slots)
	x.n = 0
}
