package mac

import (
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
