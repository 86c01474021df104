package capability

import (
	"math/rand"
	"sync"
	"testing"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

func at(sec float64) tvatime.Time { return tvatime.FromSeconds(sec) }

func TestMintValidateRoundtrip(t *testing.T) {
	t.Run("crypto", func(t *testing.T) {
		a := NewAuthority(0)
		src, dst := packet.Addr(100), packet.Addr(200)
		now := at(5)
		pre := a.PreCap(src, dst, now)
		cap := Crypto.MakeCap(pre, 32, 10)
		if !a.ValidateCap(src, dst, cap, 32, 10, now) {
			t.Fatal("freshly minted capability failed validation")
		}
		if !a.ValidateCap(src, dst, cap, 32, 10, now.Add(9*tvatime.Second)) {
			t.Error("capability invalid before T elapsed")
		}
	})
}

func TestValidateRejectsWrongBinding(t *testing.T) {
	a := NewAuthority(0)
	src, dst := packet.Addr(1), packet.Addr(2)
	now := at(3)
	pre := a.PreCap(src, dst, now)
	cap := Crypto.MakeCap(pre, 32, 10)

	cases := []struct {
		name     string
		src, dst packet.Addr
		cap      uint64
		nkb      uint16
		tsec     uint8
	}{
		{"wrong src", 9, dst, cap, 32, 10},
		{"wrong dst", src, 9, cap, 32, 10},
		{"wrong N", src, dst, cap, 33, 10},
		{"wrong T", src, dst, cap, 32, 11},
		{"tampered hash", src, dst, cap ^ 1, 32, 10},
	}
	for _, c := range cases {
		if a.ValidateCap(c.src, c.dst, c.cap, c.nkb, c.tsec, now) {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestValidateRejectsOtherRouter(t *testing.T) {
	// A capability minted by one router must not validate at another
	// (distinct secrets): unforgeability across routers.
	a1 := NewAuthority(0)
	a2 := NewAuthority(0)
	now := at(1)
	pre := a1.PreCap(1, 2, now)
	cap := Crypto.MakeCap(pre, 32, 10)
	if a2.ValidateCap(1, 2, cap, 32, 10, now) {
		t.Error("capability from router 1 validated at router 2")
	}
}

func TestExpiryByT(t *testing.T) {
	a := NewAuthority(0)
	now := at(10)
	pre := a.PreCap(1, 2, now)
	cap := Crypto.MakeCap(pre, 32, 5)
	if !a.ValidateCap(1, 2, cap, 32, 5, now.Add(4*tvatime.Second)) {
		t.Error("capability should be valid at age 4s with T=5")
	}
	if a.ValidateCap(1, 2, cap, 32, 5, now.Add(6*tvatime.Second)) {
		t.Error("capability valid past its T")
	}
}

func TestSecretRotation(t *testing.T) {
	// A capability spanning one secret rotation must validate under
	// the previous secret; after two rotations it must not, even for
	// a generous T.
	period := 16 * tvatime.Second
	a := NewAuthority(period)
	now := at(15) // one second before the first rotation
	pre := a.PreCap(1, 2, now)
	cap := Crypto.MakeCap(pre, 32, 60)
	if !a.ValidateCap(1, 2, cap, 32, 60, at(17)) {
		t.Error("capability minted before rotation should validate after it (previous secret)")
	}
	if a.ValidateCap(1, 2, cap, 32, 60, at(33)) {
		t.Error("capability validated after two rotations (secret retired)")
	}
}

func TestValidateAcrossEpochBoundaryMintEarly(t *testing.T) {
	// Mint early in an epoch and validate later in the same epoch, and
	// just after the boundary.
	period := 128 * tvatime.Second
	a := NewAuthority(period)
	now := at(2)
	pre := a.PreCap(1, 2, now)
	cap := Crypto.MakeCap(pre, 32, 63)
	if !a.ValidateCap(1, 2, cap, 32, 63, at(60)) {
		t.Error("same-epoch validation failed")
	}
}

func TestAge(t *testing.T) {
	age, ok := Age(10, 15)
	if age != 5 || !ok {
		t.Errorf("Age(10,15) = %d,%v want 5,true", age, ok)
	}
	// Wraparound: ts=250, now=260 (now mod 256 = 4).
	age, ok = Age(250, 260)
	if age != 10 || !ok {
		t.Errorf("Age(250,260) = %d,%v want 10,true", age, ok)
	}
	// Ambiguous: more than half the rollover old.
	if _, ok = Age(0, 200); ok {
		t.Error("age beyond half rollover should be ambiguous")
	}
}

func TestValidatePre(t *testing.T) {
	a := NewAuthority(0)
	now := at(1)
	pre := a.PreCap(7, 8, now)
	if !a.ValidatePre(7, 8, pre, now) {
		t.Error("own pre-capability failed validation")
	}
	if a.ValidatePre(7, 9, pre, now) {
		t.Error("pre-capability validated for wrong destination")
	}
	if a.ValidatePre(7, 8, pre^2, now) {
		t.Error("tampered pre-capability validated")
	}
}

func TestExpiryHelper(t *testing.T) {
	a := NewAuthority(0)
	now := at(100)
	pre := a.PreCap(1, 2, now)
	cap := Crypto.MakeCap(pre, 32, 10)
	exp := Expiry(cap, 10, now)
	if exp.Seconds() < 109 || exp.Seconds() > 111 {
		t.Errorf("Expiry = %v, want ~110s", exp.Seconds())
	}
}

func TestTimestampExtraction(t *testing.T) {
	a := NewAuthority(0)
	now := at(42)
	pre := a.PreCap(1, 2, now)
	if Timestamp(pre) != 42 {
		t.Errorf("Timestamp = %d, want 42", Timestamp(pre))
	}
}

// TestPropertyRoundtripRandom exercises random bindings and grant
// parameters: mint→make→validate always succeeds at mint time, and a
// forged hash never does.
func TestPropertyRoundtripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewAuthority(0)
	for i := 0; i < 500; i++ {
		src := packet.Addr(rng.Uint32())
		dst := packet.Addr(rng.Uint32())
		nkb := uint16(rng.Intn(packet.MaxNKB + 1))
		tsec := uint8(1 + rng.Intn(packet.MaxTSeconds))
		now := at(float64(rng.Intn(1000)) / 10)
		pre := a.PreCap(src, dst, now)
		cap := Crypto.MakeCap(pre, nkb, tsec)
		if !a.ValidateCap(src, dst, cap, nkb, tsec, now) {
			t.Fatalf("iter %d: roundtrip failed", i)
		}
		forged := cap ^ (1 << uint(rng.Intn(56)))
		if a.ValidateCap(src, dst, forged, nkb, tsec, now) {
			t.Fatalf("iter %d: forged capability validated", i)
		}
	}
}

// TestForgeryWithoutSecret checks an attacker computing caps from
// guessed pre-capabilities fails: the keyed hash binds the secret.
func TestForgeryWithoutSecret(t *testing.T) {
	a := NewAuthority(0)
	now := at(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		guessPre := rng.Uint64()
		cap := Crypto.MakeCap(guessPre, 32, 10)
		if a.ValidateCap(1, 2, cap, 32, 10, now) {
			t.Fatal("capability built from a guessed pre-capability validated")
		}
	}
}

func BenchmarkPreCap(b *testing.B) {
	a := NewAuthority(0)
	now := at(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.PreCap(packet.Addr(i), 2, now)
	}
}

func BenchmarkValidateCap(b *testing.B) {
	a := NewAuthority(0)
	now := at(1)
	cap := Crypto.MakeCap(a.PreCap(1, 2, now), 32, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !a.ValidateCap(1, 2, cap, 32, 10, now) {
			b.Fatal("validation failed")
		}
	}
}

// TestAuthorityConcurrentRotation shares one authority between
// goroutines, as an overlay router's receive goroutine shares its
// engine's with anyone minting through Router.Core().Authority(): each
// round runs every goroutine at one shared instant, and the rounds step
// across several secret rotations. Every freshly minted capability must
// validate. Run it under -race: the epoch check and the rotation touch
// the same state.
func TestAuthorityConcurrentRotation(t *testing.T) {
	const (
		workers = 4
		rounds  = 40
		step    = 500 * tvatime.Millisecond
	)
	a := NewAuthority(4 * tvatime.Second)
	for r := 0; r < rounds; r++ {
		now := tvatime.Time(0).Add(tvatime.Duration(r) * step)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(src packet.Addr) {
				defer wg.Done()
				cap := Crypto.MakeCap(a.PreCap(src, 9, now), 32, 10)
				if !a.ValidateCap(src, 9, cap, 32, 10, now) {
					t.Errorf("round %d src %d: fresh capability failed validation", r, src)
				}
				cap = Crypto.MakeCap(a.MinterAt(now).PreCap(src, 9), 32, 10)
				if !a.ValidateCap(src, 9, cap, 32, 10, now) {
					t.Errorf("round %d src %d: fresh minter capability failed validation", r, src)
				}
			}(packet.Addr(w + 1))
		}
		wg.Wait()
	}
}

// TestRingEpochWindow pins the ring's epoch semantics: it holds the
// newest epoch it has seen and the one before, rotates forward only,
// and a jump of two or more epochs replaces both secrets.
func TestRingEpochWindow(t *testing.T) {
	r := NewRing(tvatime.Second)
	mac := func(cur, e int64) (uint64, bool) { return r.MAC56(cur, e, 1, 2, 3) }
	h0, ok := mac(0, 0)
	if !ok {
		t.Fatal("epoch 0 not held at epoch 0")
	}
	if _, ok := mac(0, 1); ok {
		t.Error("epoch 1 held before it was issued")
	}
	h1, ok := mac(1, 1)
	if !ok {
		t.Fatal("epoch 1 not held after rotating to it")
	}
	if h, ok := mac(0, 0); !ok || h != h0 {
		t.Errorf("epoch 0 at a stale clock: %#x, %v; want %#x, true (the ring never rotates back)", h, ok, h0)
	}
	if _, ok := mac(2, 0); ok {
		t.Error("epoch 0 still held at epoch 2")
	}
	if h, ok := mac(2, 1); !ok || h != h1 {
		t.Errorf("epoch 1 at epoch 2: %#x, %v; want %#x, true", h, ok, h1)
	}
	if _, ok := mac(4, 2); ok {
		t.Error("epoch 2 held at epoch 4")
	}
	if h, ok := mac(4, 3); !ok || h == h1 {
		t.Errorf("epoch 3 after a two-epoch jump: %#x, %v; want a fresh secret", h, ok)
	}
}

// TestRingMACDoesNotAllocate holds Ring.MAC56 to zero allocations once
// the epoch is installed.
func TestRingMACDoesNotAllocate(t *testing.T) {
	r := NewRing(DefaultSecretPeriod)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		h, _ := r.MAC56(0, 0, sink, 2, 3)
		sink += h
	}); n != 0 {
		t.Errorf("Ring.MAC56: %v allocs/op, want 0", n)
	}
}
