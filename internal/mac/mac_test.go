package mac

import (
	"bytes"
	"crypto/aes"
	"crypto/sha1"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestKeyedDeterministic(t *testing.T) {
	secret := NewSecret()
	if NewAES(secret).MAC56(1, 2, 3) != NewAES(secret).MAC56(1, 2, 3) {
		t.Error("same secret, same input gave different MACs")
	}
}

func TestKeyedKeyDependence(t *testing.T) {
	s1, s2 := NewSecret(), NewSecret()
	if s1 == s2 {
		t.Fatal("NewSecret returned identical secrets")
	}
	if NewAES(s1).MAC56(1, 2, 3) == NewAES(s2).MAC56(1, 2, 3) {
		t.Error("different secrets gave identical MACs")
	}
}

func TestKeyedInputSensitivity(t *testing.T) {
	k := NewAES(NewSecret())
	base := k.MAC56(10, 20, 30)
	for i, other := range []uint64{k.MAC56(11, 20, 30), k.MAC56(10, 21, 30), k.MAC56(10, 20, 31)} {
		if other == base {
			t.Errorf("flipping input %d did not change MAC", i)
		}
	}
}

func TestMAC56Within56Bits(t *testing.T) {
	k := NewAES(NewSecret())
	f := func(a, b, c uint64) bool { return k.MAC56(a, b, c) <= Mask56 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSHA56Deterministic(t *testing.T) {
	if SHA56(42, 100, 10) != SHA56(42, 100, 10) {
		t.Error("SHA56 not deterministic")
	}
}

func TestSHA56InputSensitivity(t *testing.T) {
	base := SHA56(42, 100, 10)
	if SHA56(43, 100, 10) == base || SHA56(42, 101, 10) == base || SHA56(42, 100, 11) == base {
		t.Error("input change did not change hash")
	}
}

func TestSHA56Within56Bits(t *testing.T) {
	f := func(pre uint64, n uint32, tt uint8) bool { return SHA56(pre, n, tt) <= Mask56 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAESMAC56(b *testing.B) {
	k := NewAES(NewSecret())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.MAC56(uint64(i), 2, 3)
	}
}

func BenchmarkSHA56(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SHA56(uint64(i), 100, 10)
	}
}

// refSHA56 is SHA56 built in the test from crypto/sha1, the oracle the
// kernel is held to.
func refSHA56(pre uint64, n uint32, t uint8) uint64 {
	var in [13]byte
	binary.BigEndian.PutUint64(in[0:8], pre)
	binary.BigEndian.PutUint32(in[8:12], n)
	in[12] = t
	sum := sha1.Sum(in[:])
	return binary.BigEndian.Uint64(sum[0:8]) & Mask56
}

// refMAC56 is the two-block CBC-MAC built in the test from
// crypto/aes, the oracle both Keyeds are held to. It never goes
// through NewAES, which returns the kernel where there is one.
func refMAC56(t testing.TB, key [16]byte, a, b, c uint64) uint64 {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	var x [16]byte
	binary.BigEndian.PutUint64(x[0:8], a)
	binary.BigEndian.PutUint64(x[8:16], b)
	block.Encrypt(x[:], x[:])
	for i, v := range binary.BigEndian.AppendUint64(nil, c) {
		x[i] ^= v
	}
	block.Encrypt(x[:], x[:])
	return binary.BigEndian.Uint64(x[0:8]) & Mask56
}

// The fixed vectors were computed outside Go, with OpenSSL's AES and
// SHA-1 (through Python's hashlib and cryptography packages).
func TestSHA56Vectors(t *testing.T) {
	for _, v := range []struct {
		pre  uint64
		n    uint32
		t    uint8
		want uint64
	}{
		{0, 0, 0, 0x2f36e30159ec10},
		{^uint64(0), ^uint32(0), 255, 0x42704a4bca52b5},
		{0x0123456789abcdef, 100, 10, 0x49a454eab76c64},
		{42, 100, 10, 0xeecf80359d20cb},
	} {
		if got := SHA56(v.pre, v.n, v.t); got != v.want {
			t.Errorf("SHA56(%#x, %d, %d) = %#x, want %#x", v.pre, v.n, v.t, got, v.want)
		}
		if got := sha56Std(v.pre, v.n, v.t); got != v.want {
			t.Errorf("sha56Std(%#x, %d, %d) = %#x, want %#x", v.pre, v.n, v.t, got, v.want)
		}
	}
}

func TestMAC56Vectors(t *testing.T) {
	zero, ones, seq := [16]byte{}, [16]byte{}, [16]byte{}
	for i := range ones {
		ones[i], seq[i] = 0xff, byte(i)
	}
	const f = ^uint64(0)
	for _, v := range []struct {
		key     [16]byte
		a, b, c uint64
		want    uint64
	}{
		{zero, 0, 0, 0, 0x95bd4a52e29ed7},
		{zero, f, f, f, 0x3e3bcdde48ae69},
		{zero, 1, 2, 3, 0x4ca306ffb03a95},
		{ones, 0, 0, 0, 0x4cbd944e9d5f6e},
		{ones, f, f, f, 0xa93222e830af49},
		{ones, 0x0011223344556677, 0x8899aabbccddeeff, 0, 0x0ea499268e0069},
		{seq, 0, 0, 0, 0x9d9926f7dac871},
		{seq, f, f, f, 0x1802ba5c57d1dd},
		// The first block is FIPS-197 Appendix C.1's example.
		{seq, 0x0011223344556677, 0x8899aabbccddeeff, 0, 0x638c735f614301},
		{seq, 1, 2, 3, 0x2b960b4c511ea8},
	} {
		for name, k := range map[string]Keyed{"NewAES": NewAES(v.key), "aesMAC": newAESMAC(v.key)} {
			if got := k.MAC56(v.a, v.b, v.c); got != v.want {
				t.Errorf("%s(%x).MAC56(%#x, %#x, %#x) = %#x, want %#x", name, v.key, v.a, v.b, v.c, got, v.want)
			}
		}
	}
}

// FuzzSHA56 holds SHA56 (the kernel, where the CPU has one) to
// crypto/sha1.
func FuzzSHA56(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint8(0))
	f.Add(^uint64(0), ^uint32(0), uint8(255))
	f.Add(uint64(0x8000000000000000), uint32(1), uint8(0x80))
	f.Fuzz(func(t *testing.T, pre uint64, n uint32, tt uint8) {
		if got, want := SHA56(pre, n, tt), refSHA56(pre, n, tt); got != want {
			t.Fatalf("SHA56(%#x, %d, %d) = %#x, crypto/sha1 gives %#x", pre, n, tt, got, want)
		}
	})
}

// FuzzMAC56 holds NewAES's Keyed (the kernel, where the CPU has one)
// and the standard-library Keyed to a CBC-MAC built from crypto/aes.
func FuzzMAC56(f *testing.F) {
	f.Add(make([]byte, 16), uint64(0), uint64(0), uint64(0))
	f.Add(bytes.Repeat([]byte{0xff}, 16), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add([]byte("0123456789abcdef"), uint64(1), uint64(2), uint64(3))
	f.Fuzz(func(t *testing.T, keyBytes []byte, a, b, c uint64) {
		var key [16]byte
		copy(key[:], keyBytes)
		want := refMAC56(t, key, a, b, c)
		if got := NewAES(key).MAC56(a, b, c); got != want {
			t.Fatalf("NewAES(%x).MAC56(%#x, %#x, %#x) = %#x, crypto/aes gives %#x", key, a, b, c, got, want)
		}
		if got := newAESMAC(key).MAC56(a, b, c); got != want {
			t.Fatalf("aesMAC(%x).MAC56(%#x, %#x, %#x) = %#x, crypto/aes gives %#x", key, a, b, c, got, want)
		}
	})
}

func TestHashesDoNotAllocate(t *testing.T) {
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += SHA56(sink, 7, 9) }); n != 0 {
		t.Errorf("SHA56: %v allocs/op, want 0", n)
	}
	for name, k := range map[string]Keyed{"NewAES": NewAES(NewSecret()), "aesMAC": newAESMAC(NewSecret())} {
		if n := testing.AllocsPerRun(100, func() { sink += k.MAC56(sink, 2, 3) }); n != 0 {
			t.Errorf("%s MAC56: %v allocs/op, want 0", name, n)
		}
	}
}

// TestPortableKeyedConcurrentRotation shares standard-library Keyeds,
// the ones every CPU without AES-NI runs, between concurrent minters
// and validators while a rotator keeps replacing them, the way
// capability.Ring shares its secrets. A validator recomputes each
// minted tag under the same Keyed and checks it against crypto/aes.
// Run it under -race (make race): unguarded scratch is a data race.
func TestPortableKeyedConcurrentRotation(t *testing.T) {
	type keyed struct {
		k      *aesMAC
		secret [16]byte
	}
	type minted struct {
		by      *keyed
		a, b, c uint64
		tag     uint64
	}
	fresh := func() *keyed {
		s := NewSecret()
		return &keyed{k: newAESMAC(s), secret: s}
	}
	var cur atomic.Pointer[keyed]
	cur.Store(fresh())

	const minters, validators, perMinter, rotations = 3, 3, 400, 50
	tags := make(chan minted, minters)
	var mint, check sync.WaitGroup
	for m := 0; m < minters; m++ {
		mint.Add(1)
		go func(m uint64) {
			defer mint.Done()
			for i := uint64(0); i < perMinter; i++ {
				by := cur.Load()
				a, b, c := m, i, i*m
				tags <- minted{by: by, a: a, b: b, c: c, tag: by.k.MAC56(a, b, c)}
			}
		}(uint64(m))
	}
	for v := 0; v < validators; v++ {
		check.Add(1)
		go func() {
			defer check.Done()
			for m := range tags {
				if got := m.by.k.MAC56(m.a, m.b, m.c); got != m.tag {
					t.Errorf("MAC56(%d, %d, %d): minted %#x, recomputed %#x", m.a, m.b, m.c, m.tag, got)
				}
				if want := refMAC56(t, m.by.secret, m.a, m.b, m.c); want != m.tag {
					t.Errorf("MAC56(%d, %d, %d): minted %#x, crypto/aes gives %#x", m.a, m.b, m.c, m.tag, want)
				}
			}
		}()
	}
	for r := 0; r < rotations; r++ {
		cur.Store(fresh())
	}
	mint.Wait()
	close(tags)
	check.Wait()
}
