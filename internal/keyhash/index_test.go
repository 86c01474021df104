package keyhash

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// opsKeys is the differential key space: 16 keys against indexes of at
// most 8, so keys are refused, deleted and re-inserted all the time.
const opsKeys = 16

// opsKey spreads key byte b over the whole 64-bit range (key 0, which
// an empty slot also holds, included), so keys differ in high bits as
// well as low.
func opsKey(b byte) uint64 { return uint64(b%opsKeys) * 0x9E3779B97F4A7C15 }

// opsSeed maps an input byte to a fixed seed, so a failing input
// reproduces its slot layout.
func opsSeed(b byte) seed {
	return seed{k0: uint64(b) * 0x9E3779B97F4A7C15, k1: uint64(b) ^ 0xC2B2AE3D27D4EB4F}
}

// opsIndex builds the index an input's first two bytes describe: the
// seed, then the key capacity (1..8) and slots per key (2, 4 or 16).
func opsIndex(seedByte, capByte byte) (Index, int) {
	n := 1 + int(capByte)%8
	x := NewIndex(n, [...]int{2, 4, 16}[capByte/8%3])
	x.seed = opsSeed(seedByte)
	return x, n
}

// indexOps runs the operation sequence encoded in data against an
// Index and a map and returns the first disagreement. data[0] and
// data[1] pick the index (opsIndex); each following 2-byte group
// [op, key] is an Insert, a replace, a Delete, a Find or (rarely) a
// Clear. A replace is flowstats' new-sender touch: FindHome for an
// absent key, a Delete of the smallest key when the index is full, and
// an InsertHome at the home FindHome returned. An Insert whose key is
// present, or that would exceed the capacity, and a replace whose key
// is present, are a Find instead, since their contracts exclude both.
func indexOps(data []byte) error {
	if len(data) < 2 {
		return nil
	}
	x, n := opsIndex(data[0], data[1])
	ref := map[uint64]int32{}
	for step, p := 0, data[2:]; len(p) >= 2; step, p = step+1, p[2:] {
		op, k := p[0]%8, opsKey(p[1])
		_, present := ref[k]
		switch {
		case op < 2 && !present && len(ref) < n:
			x.Insert(k, int32(step))
			ref[k] = int32(step)
		case op == 2 && !present:
			h, home := x.FindHome(k)
			if h != -1 || home != x.home(k) {
				return fmt.Errorf("step %d: FindHome(%#x) = %d, %d, want -1, %d", step, k, h, home, x.home(k))
			}
			if len(ref) == n {
				old := uint64(math.MaxUint64)
				for rk := range ref {
					old = min(old, rk)
				}
				x.Delete(old)
				delete(ref, old)
			}
			x.InsertHome(k, home, int32(step))
			ref[k] = int32(step)
		case op == 3 || op == 4:
			x.Delete(k)
			delete(ref, k)
		case op == 7 && p[1] >= 240:
			x.Clear()
			clear(ref)
		default:
			want, ok := ref[k]
			if !ok {
				want = -1
			}
			got, home := x.FindHome(k)
			if got != want || home != x.home(k) || x.Find(k) != got {
				return fmt.Errorf("step %d: Find/FindHome(%#x) = %d/%d, %d, want %d, %d",
					step, k, x.Find(k), got, home, want, x.home(k))
			}
		}
		if err := checkIndex(&x, ref); err != nil {
			return fmt.Errorf("step %d (op %d, key %#x): %v", step, op, k, err)
		}
	}
	return nil
}

// checkIndex walks the slot array: every occupied slot's stored home
// is its key's hash, the key is reachable by probing from that home
// (so the chain has no gap before it and no earlier copy of the key),
// the slot's handle is the reference's, and Len is both the number of
// occupied slots and the reference's size.
func checkIndex(x *Index, ref map[uint64]int32) error {
	occupied := 0
	for i, s := range x.slots {
		if s.h1 == 0 {
			continue
		}
		occupied++
		if s.home != x.home(s.key) {
			return fmt.Errorf("slot %d: %#x stored home %d, hashes to %d", i, s.key, s.home, x.home(s.key))
		}
		if j := x.probe(s.key, s.home); j != uint32(i) {
			return fmt.Errorf("slot %d: %#x unreachable from its home %d (probe stops at %d)", i, s.key, s.home, j)
		}
		if h, ok := ref[s.key]; !ok || h != s.h1-1 {
			return fmt.Errorf("slot %d: %#x -> %d, reference has %d (present %v)", i, s.key, s.h1-1, h, ok)
		}
	}
	if occupied != x.Len() || x.Len() != len(ref) {
		return fmt.Errorf("%d occupied slots, Len %d, reference %d keys", occupied, x.Len(), len(ref))
	}
	return nil
}

// wrapCorpus builds inputs whose probe chains run past the last slot
// and continue at slot 0: for capacities 2, 4 and 8 at two slots per
// key it finds a seed byte under which two keys share the last slot as
// their home and a third starts at the last slot or at slot 0 (so its
// probe crosses the wrapped chain), then inserts, finds, deletes and
// re-inserts those keys and churns every other key through. The inputs
// are fuzz seeds; TestIndexOpsWrap checks that they really wrap.
func wrapCorpus() [][]byte {
	var out [][]byte
	for _, n := range []byte{2, 4, 8} {
		for s := 0; s < 256; s++ {
			x, _ := opsIndex(byte(s), n-1)
			var last, first []byte
			for k := byte(0); k < opsKeys; k++ {
				switch x.home(opsKey(k)) {
				case x.mask:
					last = append(last, k)
				case 0:
					first = append(first, k)
				}
			}
			if len(last) < 2 || len(last)+len(first) < 3 {
				continue
			}
			ks := append(last, first...)[:3]
			in := []byte{byte(s), n - 1}
			for _, k := range ks {
				in = append(in, 0, k) // Insert
			}
			in = append(in, 5, ks[2], 3, ks[0], 5, ks[2], 6, ks[1]) // Find, Delete the chain head, Find
			in = append(in, 0, ks[0], 4, ks[1], 5, ks[0], 5, ks[2])
			for k := byte(0); k < opsKeys; k++ {
				in = append(in, 1, k, 3, (k+5)%opsKeys) // churn
			}
			in = append(in, 7, 255, 0, ks[2], 5, ks[2])
			out = append(out, in)
			break
		}
	}
	return out
}

func TestIndexOpsWrap(t *testing.T) {
	corpus := wrapCorpus()
	if len(corpus) != 3 {
		t.Fatalf("found wrap seeds for %d capacities, want 3", len(corpus))
	}
	for _, in := range corpus {
		// The first three inserts must leave a chain that wraps.
		x, n := opsIndex(in[0], in[1])
		for i, p := range [][]byte{in[2:4], in[4:6], in[6:8]} {
			x.Insert(opsKey(p[1]), int32(i))
		}
		if s := x.slots[0]; s.h1 == 0 || s.home != x.mask {
			t.Errorf("seed %d, n %d: slot 0 does not continue a chain from the last slot", in[0], n)
		}
		if err := indexOps(in); err != nil {
			t.Errorf("seed %d, n %d: %v", in[0], n, err)
		}
	}
}

// TestIndexMatchesReference runs long random operation sequences
// through indexOps.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 2+2*600)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		if err := indexOps(data); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzIndexOps holds the index to a map on fuzzed operation sequences.
func FuzzIndexOps(f *testing.F) {
	for _, in := range wrapCorpus() {
		f.Add(in)
	}
	f.Add([]byte{0, 0, 0, 1, 0, 2, 5, 1, 3, 1, 5, 2})
	fill := []byte{9, 7}
	for k := byte(0); k < 3*opsKeys; k++ { // fill to capacity, then delete and refill
		fill = append(fill, k%5, k)
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := indexOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// maxProbe returns the longest probe walk (slots examined to reach a
// key from its home) in x.
func maxProbe(x *Index) uint32 {
	var m uint32
	for i, s := range x.slots {
		if s.h1 != 0 {
			m = max(m, (uint32(i)-s.home)&x.mask+1)
		}
	}
	return m
}

// TestHashFloodProbeLength inserts 4096 flow keys that an unkeyed
// multiply-shift (the fixed-constant hash flowstats used to have) sends
// to one slot, and requires short probe chains under the keyed hash
// for 256 fixed seeds, against the 4096 of a collapsed chain. It runs
// at both callers' loads: 1/4 (the flow cache) and 1/16 (the flowstats
// table), each filled to capacity. A single multiply-fold with the key
// in one operand fails here: about one seed in 64 folds this pattern
// onto a few dozen homes.
func TestHashFloodProbeLength(t *testing.T) {
	const n = 4096
	keys := make([]uint64, n)
	homes := map[uint64]bool{}
	for i := range keys {
		keys[i] = uint64(i)<<52 | 7 // source address i<<20, destination 7
		homes[(keys[i]*0x9E3779B97F4A7C15)>>32&(2*n-1)] = true
	}
	if len(homes) != 1 {
		t.Fatalf("pattern spreads over %d homes under multiply-shift; want one", len(homes))
	}
	for _, tc := range []struct{ perKey, limit int }{{4, 32}, {16, 16}} {
		rng := rand.New(rand.NewPCG(5, uint64(tc.perKey)))
		for s := 0; s < 256; s++ {
			x := NewIndex(n, tc.perKey)
			x.seed = seed{k0: rng.Uint64(), k1: rng.Uint64()}
			for i, k := range keys {
				x.Insert(k, int32(i))
			}
			if m := maxProbe(&x); m > uint32(tc.limit) {
				t.Errorf("load 1/%d, seed %d: longest probe %d slots, want <= %d", tc.perKey, s, m, tc.limit)
			}
		}
	}
}

func TestIndexesDrawDistinctSeeds(t *testing.T) {
	a, b := NewIndex(16, 4), NewIndex(16, 4)
	if a.seed == b.seed {
		t.Fatal("two indexes share one hash seed")
	}
	same := 0
	for k := uint64(1); k <= 4; k++ {
		if a.home(k) == b.home(k) {
			same++
		}
	}
	if same == 4 {
		t.Error("two indexes place four keys identically")
	}
}
