package mac

// The amd64 kernels: AES-NI for the pre-capability MAC and the SHA
// extensions for the capability hash, chosen at init from CPUID. Each
// is checked against the standard library by FuzzMAC56 and FuzzSHA56.

import "math/bits"

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// aesMAC56 is the two-block CBC-MAC of aesMAC on the round keys rk.
//
//go:noescape
func aesMAC56(rk *[176]byte, a, b, c uint64) uint64

// sha56NI returns the first two words (A<<32 | B) of the SHA-1 digest
// of the 13-byte message whose first 8 bytes are pre and whose next 5
// are the top 5 bytes of lo; lo's low 3 bytes must be 0x80, 0, 0 (the
// padding).
//
//go:noescape
func sha56NI(pre, lo uint64) uint64

// useAESNI and useSHANI report whether the CPU has the instructions
// the kernels use: AES-NI, the SHA extensions, and SSE4.1 (PINSRQ,
// PEXTRQ) for both.
var useAESNI, useSHANI = detect()

func detect() (aesni, shani bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	sse41 := ecx1&(1<<19) != 0
	aesni = sse41 && ecx1&(1<<25) != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		shani = sse41 && ebx7&(1<<29) != 0
	}
	return aesni, shani
}

// aesNI is the AES-NI Keyed: the expanded key and nothing else, so it
// is immutable and safe for concurrent use.
type aesNI struct{ rk [176]byte }

func newAESNI(secret [16]byte) Keyed {
	//lint:ignore hotpath one key schedule per secret rotation (every period), never per packet
	return &aesNI{rk: expandKey(secret)}
}

// MAC56 implements Keyed.
//
//tva:hotpath
func (k *aesNI) MAC56(a, b, c uint64) uint64 { return aesMAC56(&k.rk, a, b, c) & Mask56 }

// expandKey returns the AES-128 key schedule of key (FIPS-197 §5.2):
// eleven 16-byte round keys, in the byte order AESENC reads them.
func expandKey(key [16]byte) (rk [176]byte) {
	copy(rk[:], key[:])
	rcon := byte(1)
	for i := 16; i < len(rk); i += 4 {
		t := [4]byte(rk[i-4 : i])
		if i%16 == 0 {
			t = [4]byte{sbox(t[1]) ^ rcon, sbox(t[2]), sbox(t[3]), sbox(t[0])}
			rcon = xtime(rcon)
		}
		for j, v := range t {
			rk[i+j] = rk[i-16+j] ^ v
		}
	}
	return rk
}

// xtime multiplies b by x in AES's GF(2^8).
func xtime(b byte) byte { return b<<1 ^ 0x1b&-(b>>7) }

// gmul multiplies a by b in AES's GF(2^8).
func gmul(a, b byte) (p byte) {
	for ; b != 0; b >>= 1 {
		p ^= a & -(b & 1)
		a = xtime(a)
	}
	return p
}

// sbox is the AES S-box (FIPS-197 §5.1.1): the affine map of b's
// multiplicative inverse b^254 (0 for 0).
func sbox(b byte) byte {
	inv := b
	for range 6 { // exponent 1 -> 3 -> 7 -> ... -> 127
		inv = gmul(gmul(inv, inv), b)
	}
	inv = gmul(inv, inv) // 254
	return 0x63 ^ inv ^ bits.RotateLeft8(inv, 1) ^ bits.RotateLeft8(inv, 2) ^
		bits.RotateLeft8(inv, 3) ^ bits.RotateLeft8(inv, 4)
}
