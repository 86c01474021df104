// Package keyhash is the keyed hash behind the open-addressed indexes
// whose keys an attacker chooses: the flow cache (keyed by spoofable
// source/destination pairs) and the flowstats heavy-hitter table
// (keyed by source address and path identifier). With a fixed hash an
// attacker who can create entries — a colluding destination grants
// capabilities to as many spoofed sources as it likes — could pick
// keys that share one probe chain and turn every lookup into a linear
// scan. Each index draws its own Seed, as Go maps do.
//
// The construction is the runtime's non-AES 64-bit hash
// (memhash64Fallback in runtime/hash64.go): two 64×64→128-bit
// multiply-folds, the key entering both operands of the first. A
// single fold with the key in one operand is not enough: for keys
// that differ only in their high bits its low output bits are linear
// in the key, and some seeds collapse a 4096-key pattern into one
// chain.
package keyhash

import (
	"math/bits"
	"math/rand/v2"
)

// m5 is the runtime hash's final-round constant.
const m5 = 0x1d8e4e27c47d124f

// Seed is one index's hash key.
type Seed struct{ k0, k1 uint64 }

// New draws a fresh seed. Slot placement is not observable through any
// index built on it, so the randomness does not reach simulator output.
func New() Seed { return Seed{k0: rand.Uint64(), k1: rand.Uint64()} }

// FromKeys builds a fixed seed, for tests and fuzz targets that must
// reproduce a slot layout.
func FromKeys(k0, k1 uint64) Seed { return Seed{k0: k0, k1: k1} }

// Sum hashes x; the low bits are suitable as a slot index.
//
//tva:hotpath
func (s Seed) Sum(x uint64) uint64 {
	return mix(m5^8, mix(x^s.k1, x^s.k0))
}

// mix multiplies a by b and folds the 128-bit product to 64 bits.
//
//tva:hotpath
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
