// Package mac provides the 56-bit keyed and unkeyed hash functions that
// TVA capabilities are built from (paper §3.4, §6).
//
// The paper's prototype uses an AES-based hash for pre-capabilities (the
// keyed, router-secret hash) and SHA-1 for capabilities (the public hash
// the destination can compute). Both are reproduced here on the standard
// library, and they are the only construction: the simulator, the
// overlay and every test run the same hashes. On amd64 CPUs with AES-NI
// and the SHA extensions both run as assembly kernels instead, which
// the tests hold to crypto/aes and crypto/sha1; elsewhere the standard
// library computes them.
package mac

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha1"
	"encoding/binary"
	"sync"
)

// Mask56 keeps the low 56 bits of a hash, the size of the hash field in
// a TVA capability (Fig. 3: 8-bit timestamp + 56-bit hash).
const Mask56 = (uint64(1) << 56) - 1

// Keyed computes a 56-bit MAC over a small fixed-size message. A router
// uses one Keyed instance per secret; rotating the secret means
// constructing a fresh Keyed. A Keyed is safe for concurrent use.
type Keyed interface {
	// MAC56 hashes the three words (src/dst addresses and metadata)
	// under the instance's secret and returns the low 56 bits.
	MAC56(a, b, c uint64) uint64
}

// NewSecret returns 16 bytes of cryptographically random secret
// material for a router.
func NewSecret() [16]byte {
	var s [16]byte
	if _, err := rand.Read(s[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it does,
		// the router cannot operate safely.
		//lint:ignore hotpath concatenation happens only on the fatal error path, which panics
		panic("mac: reading random secret: " + err.Error())
	}
	return s
}

// aesMAC is a CBC-MAC over exactly two AES blocks (32 bytes of input:
// three 8-byte words plus 8 bytes of zero padding). Fixed-length input
// makes plain CBC-MAC safe. It is the Keyed wherever the AES kernel is
// not available.
//
// The scratch blocks live on the struct rather than the stack: slices
// passed through the cipher.Block interface escape, so stack buffers
// would cost two heap allocations per MAC. mu guards them, which keeps
// a shared aesMAC safe for concurrent use.
type aesMAC struct {
	block cipher.Block
	mu    sync.Mutex
	in    [32]byte
	out   [16]byte
}

// NewAES returns a Keyed backed by AES-128 CBC-MAC, the paper's
// pre-capability hash.
func NewAES(secret [16]byte) Keyed {
	if useAESNI {
		return newAESNI(secret)
	}
	return newAESMAC(secret)
}

// newAESMAC returns the standard-library Keyed.
func newAESMAC(secret [16]byte) *aesMAC {
	block, err := aes.NewCipher(secret[:])
	if err != nil {
		// 16-byte keys are always valid for AES-128.
		//lint:ignore hotpath concatenation happens only on the fatal error path, which panics
		panic("mac: aes.NewCipher: " + err.Error())
	}
	//lint:ignore hotpath one cipher per secret rotation (every period), never per packet
	return &aesMAC{block: block}
}

// MAC56 implements Keyed.
//
//tva:hotpath
func (m *aesMAC) MAC56(a, b, c uint64) uint64 {
	m.mu.Lock()
	binary.BigEndian.PutUint64(m.in[0:8], a)
	binary.BigEndian.PutUint64(m.in[8:16], b)
	binary.BigEndian.PutUint64(m.in[16:24], c)
	// in[24:32] stays zero (length is fixed, so no length encoding is
	// needed for CBC-MAC security; the scratch bytes are never written).
	m.block.Encrypt(m.out[:], m.in[0:16])
	for i := range m.out {
		m.out[i] ^= m.in[16+i]
	}
	m.block.Encrypt(m.out[:], m.out[:])
	h := binary.BigEndian.Uint64(m.out[0:8]) & Mask56
	m.mu.Unlock()
	return h
}

// SHA56 is the public (unkeyed) 56-bit hash used to derive a capability
// from a pre-capability plus the destination's chosen N and T
// (paper §3.5: capability = hash(pre-capability, N, T)). Both the
// destination and every router on the path can compute it. It is the
// low 56 bits of the first 8 digest bytes of SHA-1 over the 13-byte
// message BE(pre)‖BE(n)‖t.
//
//tva:hotpath
func SHA56(pre uint64, n uint32, t uint8) uint64 {
	if useSHANI {
		// Message bytes 8..12 and the padding's leading 0x80.
		return sha56NI(pre, uint64(n)<<32|uint64(t)<<24|0x80<<16) & Mask56
	}
	return sha56Std(pre, n, t)
}

// sha56Std is SHA56 on crypto/sha1.
func sha56Std(pre uint64, n uint32, t uint8) uint64 {
	var in [13]byte
	binary.BigEndian.PutUint64(in[0:8], pre)
	binary.BigEndian.PutUint32(in[8:12], n)
	in[12] = t
	sum := sha1.Sum(in[:])
	return binary.BigEndian.Uint64(sum[0:8]) & Mask56
}
