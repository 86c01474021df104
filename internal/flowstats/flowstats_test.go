package flowstats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tva/internal/packet"
)

// zipfStream draws n (key, bytes) events from a Zipf(s) distribution
// over keys and returns the stream plus exact per-key byte totals.
func zipfStream(t *testing.T, seed int64, s float64, keys, n int) ([]Key, map[Key]uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(keys-1))
	if z == nil {
		t.Fatal("rand.NewZipf returned nil")
	}
	stream := make([]Key, n)
	exact := make(map[Key]uint64, keys)
	for i := range stream {
		k := KeyFor(packet.Addr(z.Uint64()+1), 0)
		stream[i] = k
		exact[k] += 1000
	}
	return stream, exact
}

func exactTopK(exact map[Key]uint64, k int) []Key {
	type kv struct {
		k Key
		v uint64
	}
	all := make([]kv, 0, len(exact))
	for key, v := range exact {
		all = append(all, kv{key, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]Key, len(all))
	for i, e := range all {
		out[i] = e.k
	}
	return out
}

// TestTopKRecallZipf is the satellite property test: on a skewed
// Zipf(1.2) stream, the space-saving table's top set must recover at
// least 90% of the exact heavy hitters, and every tracked byte count
// must bracket the truth per the space-saving guarantee
// (true <= tracked <= true + err).
func TestTopKRecallZipf(t *testing.T) {
	const (
		tableK  = 128
		judgeK  = 32
		keys    = 100_000
		draws   = 200_000
		minWant = 0.9
	)
	stream, exact := zipfStream(t, 42, 1.2, keys, draws)

	var tbl Table
	tbl.Init(tableK)
	for _, k := range stream {
		tbl.touch(k, 1000, 1, 0, 0)
	}

	samples := tbl.AppendSamples(nil)
	SortSamples(samples)
	tracked := make(map[Key]Sample, len(samples))
	for _, s := range samples {
		tracked[s.Key] = s
		truth := exact[s.Key]
		if s.Bytes < truth {
			t.Fatalf("key %v: tracked bytes %d below true %d", s.Key, s.Bytes, truth)
		}
		if s.Bytes-s.Err > truth {
			t.Fatalf("key %v: bytes-err %d exceeds true %d (err %d)",
				s.Key, s.Bytes-s.Err, truth, s.Err)
		}
	}

	hits := 0
	for _, k := range exactTopK(exact, judgeK) {
		if _, ok := tracked[k]; ok {
			hits++
		}
	}
	recall := float64(hits) / float64(judgeK)
	t.Logf("top-%d recall over %d tracked: %.3f", judgeK, tableK, recall)
	if recall < minWant {
		t.Fatalf("top-K recall %.3f < %.2f", recall, minWant)
	}
}

// TestTableEviction exercises the space-saving replacement rule
// directly on a tiny table.
func TestTableEviction(t *testing.T) {
	var tbl Table
	tbl.Init(2)
	a, b, c := KeyFor(1, 0), KeyFor(2, 0), KeyFor(3, 0)
	tbl.touch(a, 100, 1, 0, 0)
	tbl.touch(b, 10, 1, 0, 0)
	tbl.touch(c, 5, 1, 0, 0) // evicts b (min=10), inherits its count

	samples := tbl.AppendSamples(nil)
	SortSamples(samples)
	if len(samples) != 2 {
		t.Fatalf("len = %d, want 2", len(samples))
	}
	if samples[0].Key != a || samples[0].Bytes != 100 || samples[0].Err != 0 {
		t.Fatalf("top entry = %+v, want key %v bytes 100 err 0", samples[0], a)
	}
	if samples[1].Key != c || samples[1].Bytes != 15 || samples[1].Err != 10 {
		t.Fatalf("evictee slot = %+v, want key %v bytes 15 err 10", samples[1], c)
	}

	// Among equal minima the lowest slot is evicted. b's hit brings all
	// three slots to 10, so d takes slot 0 (a) and e then slot 1 (b). A
	// binary min-heap evicts b first here: b reached the root at its
	// insert and no sift moves a root that only ties its children.
	var tie Table
	tie.Init(3)
	d, e := KeyFor(4, 0), KeyFor(5, 0)
	for _, op := range []struct {
		k     Key
		bytes uint64
	}{{a, 10}, {b, 5}, {c, 10}, {b, 5}, {d, 1}, {e, 1}} {
		tie.touch(op.k, op.bytes, 1, 0, 0)
	}
	want := []Sample{
		{Key: d, Bytes: 11, Pkts: 1, Err: 10},
		{Key: e, Bytes: 11, Pkts: 1, Err: 10},
		{Key: c, Bytes: 10, Pkts: 1},
	}
	if got := tie.AppendSamples(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("tie eviction: slots = %+v, want %+v", got, want)
	}

	// Drops on an untracked sender must not evict anyone.
	tbl.touch(KeyFor(9, 0), 0, 0, 1, 0)
	if tbl.Len() != 2 || tbl.idx.Find(uint64(KeyFor(9, 0))) >= 0 {
		t.Fatal("zero-byte touch on full table must be a no-op for untracked keys")
	}
	// But drops on a tracked sender are attributed.
	tbl.touch(a, 0, 0, 1, 0)
	samples = tbl.AppendSamples(samples[:0])
	SortSamples(samples)
	if samples[0].Drops != 1 {
		t.Fatalf("tracked drop not attributed: %+v", samples[0])
	}
}

// TestMergeDeterminism: merging collector snapshots must not depend
// on collector order, and must sum per-key counters.
func TestMergeDeterminism(t *testing.T) {
	s1 := []Sample{
		{Key: KeyFor(1, 0), Bytes: 100, Pkts: 1},
		{Key: KeyFor(2, 0), Bytes: 50, Pkts: 1, Drops: 2},
	}
	s2 := []Sample{
		{Key: KeyFor(2, 0), Bytes: 60, Pkts: 2},
		{Key: KeyFor(3, 0), Bytes: 10, Pkts: 1, Demotions: 1},
	}
	ab := MergeSamples(append(append([]Sample(nil), s1...), s2...), 0)
	ba := MergeSamples(append(append([]Sample(nil), s2...), s1...), 0)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge order-dependent:\n%v\n%v", ab, ba)
	}
	want := []Sample{
		{Key: KeyFor(2, 0), Bytes: 110, Pkts: 3, Drops: 2},
		{Key: KeyFor(1, 0), Bytes: 100, Pkts: 1},
		{Key: KeyFor(3, 0), Bytes: 10, Pkts: 1, Demotions: 1},
	}
	if !reflect.DeepEqual(ab, want) {
		t.Fatalf("merge = %v, want %v", ab, want)
	}
	if top := MergeSamples(append(append([]Sample(nil), s1...), s2...), 2); len(top) != 2 {
		t.Fatalf("k-truncation kept %d rows, want 2", len(top))
	}
}

// mergeRows decodes fuzz input into a truncation bound and sample
// rows: data[0] picks k (-2..17), data[1] seeds the reordering, and
// each following 7-byte group is one row [key, bytes hi, bytes lo,
// pkts, drops, demotions, err]. Keys come from a space of 16, so rows
// for one key repeat and byte counts tie.
func mergeRows(data []byte) (k int, seed uint64, rows []Sample) {
	k, seed = int(data[0]%20)-2, uint64(data[1])
	for p := data[2:]; len(p) >= 7; p = p[7:] {
		rows = append(rows, Sample{
			Key:   KeyFor(packet.Addr(p[0]%8+1), packet.PathID(p[0]/8%2)),
			Bytes: uint64(p[1])<<8 | uint64(p[2]),
			Pkts:  uint64(p[3]), Drops: uint64(p[4]), Demotions: uint64(p[5]), Err: uint64(p[6]),
		})
	}
	return k, seed, rows
}

// FuzzMergeSamples checks MergeSamples' contract on fuzzed rows: the
// result does not depend on input order, it keeps every key with its
// summed counters before truncation, its rows follow SortSamples'
// total order, and k truncates it.
func FuzzMergeSamples(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{4, 1, 0, 0, 100, 1, 0, 0, 3, 1, 0, 50, 1, 2, 0, 0, 9, 0, 60, 2, 0, 0, 0, 0, 0, 10, 1, 0, 1, 7})
	f.Add([]byte{3, 9, 1, 0, 5, 1, 0, 0, 0, 2, 0, 5, 1, 0, 0, 0, 3, 0, 5, 1, 0, 0, 0, 9, 0, 5, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, seed, rows := mergeRows(data)
		sums := map[Key]Sample{}
		for _, r := range rows {
			s := sums[r.Key]
			s.Key = r.Key
			s.Bytes += r.Bytes
			s.Pkts += r.Pkts
			s.Drops += r.Drops
			s.Demotions += r.Demotions
			s.Err += r.Err
			sums[r.Key] = s
		}
		shuffled := append([]Sample(nil), rows...)
		rand.New(rand.NewSource(int64(seed))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})

		all := MergeSamples(append([]Sample(nil), rows...), 0)
		if len(all) != len(sums) {
			t.Fatalf("merge kept %d rows for %d keys", len(all), len(sums))
		}
		for i, r := range all {
			if r != sums[r.Key] {
				t.Fatalf("row %d = %+v, want sums %+v", i, r, sums[r.Key])
			}
			if i > 0 {
				prev := all[i-1]
				if prev.Bytes < r.Bytes || prev.Bytes == r.Bytes && prev.Key >= r.Key {
					t.Fatalf("rows %d and %d out of order: %+v then %+v", i-1, i, prev, r)
				}
			}
		}
		if again := MergeSamples(shuffled, 0); !reflect.DeepEqual(again, all) {
			t.Fatalf("merge depends on input order:\n%v\n%v", all, again)
		}
		want := all
		if k > 0 && len(want) > k {
			want = want[:k]
		}
		if got := MergeSamples(append([]Sample(nil), rows...), k); !reflect.DeepEqual(got, want) {
			t.Fatalf("MergeSamples(k=%d) = %v, want %v", k, got, want)
		}
	})
}

// TestKeying: requests are keyed by their most recent path identifier,
// everything else by source address.
func TestKeying(t *testing.T) {
	legacy := &packet.Packet{Src: packet.AddrFrom(10, 0, 0, 1), Size: 100}
	if got := keyOf(legacy); got.Src() != legacy.Src || got.Path() != 0 {
		t.Fatalf("legacy key = %v/%v", got.Src(), got.Path())
	}
	req := &packet.Packet{
		Src:  packet.AddrFrom(10, 0, 0, 2),
		Size: 40,
		Hdr: &packet.CapHdr{
			Kind:    packet.KindRequest,
			Request: packet.RequestHdr{PathIDs: []packet.PathID{7, 9}},
		},
	}
	if got := keyOf(req); got.Src() != req.Src || got.Path() != 9 {
		t.Fatalf("request key = %v/%v, want %v/9", got.Src(), got.Path(), req.Src)
	}
}

func TestFairnessWindows(t *testing.T) {
	f := NewFairness(4)
	if f.Jain() != 1 || f.MaxMinRatio() != 1 {
		t.Fatal("fresh engine must report the ideal indices")
	}
	for i := 0; i < 4; i++ {
		f.Account(i, 1000)
	}
	f.Account(99, 5000) // out of range: ignored
	f.Roll()
	if f.Jain() != 1 || f.MaxMinRatio() != 1 {
		t.Fatalf("equal window: jain=%v ratio=%v, want 1/1", f.Jain(), f.MaxMinRatio())
	}

	// Second window: one sender hogs everything.
	f.Account(0, 4000)
	f.Roll()
	if want := 0.25; math.Abs(f.Jain()-want) > 1e-9 {
		t.Fatalf("hogged window jain = %v, want %v", f.Jain(), want)
	}
	if f.MaxMinRatio() != 4000 {
		t.Fatalf("hogged window ratio = %v, want 4000 (1-byte clamp)", f.MaxMinRatio())
	}

	// Idle window rolls back to the ideal.
	f.Roll()
	if f.Jain() != 1 || f.MaxMinRatio() != 1 {
		t.Fatal("idle window must score 1/1")
	}

	if got := JainIndex([]uint64{2, 2, 2}); got != 1 {
		t.Fatalf("JainIndex equal = %v", got)
	}
	if got := JainIndex([]uint64{6, 0, 0}); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("JainIndex hogged = %v, want 1/3", got)
	}
	if got := MaxMinRatio([]uint64{10, 5}); got != 2 {
		t.Fatalf("MaxMinRatio = %v, want 2", got)
	}
}

func TestSampleFairness(t *testing.T) {
	prev := map[Key]uint64{}
	cur := []Sample{
		{Key: KeyFor(1, 0), Bytes: 100},
		{Key: KeyFor(2, 0), Bytes: 100},
	}
	jain, ratio := SampleFairness(prev, cur)
	if jain != 1 || ratio != 1 {
		t.Fatalf("first window: jain=%v ratio=%v", jain, ratio)
	}
	cur = []Sample{
		{Key: KeyFor(1, 0), Bytes: 400}, // +300
		{Key: KeyFor(2, 0), Bytes: 200}, // +100
	}
	jain, ratio = SampleFairness(prev, cur)
	if ratio != 3 {
		t.Fatalf("second window ratio = %v, want 3", ratio)
	}
	if want := 0.8; math.Abs(jain-want) > 1e-9 {
		t.Fatalf("second window jain = %v, want %v", jain, want)
	}
	// Departed keys leave prev so it cannot grow without bound.
	jain, ratio = SampleFairness(prev, []Sample{{Key: KeyFor(3, 0), Bytes: 10}})
	if jain != 1 || ratio != 1 {
		t.Fatalf("single-sender window: jain=%v ratio=%v", jain, ratio)
	}
	if len(prev) != 1 {
		t.Fatalf("prev kept departed keys: %v", prev)
	}
}

// TestCollectorAccessors: a collector reports what its table and byte
// total hold, and a nil collector reports nothing.
func TestCollectorAccessors(t *testing.T) {
	c := New(2, DefaultSketchWidth)
	if c.TopShare() != 0 {
		t.Fatal("TopShare before any traffic must be 0")
	}
	for _, p := range []packet.Packet{{Src: 1, Size: 300}, {Src: 2, Size: 100}, {Src: 1, Size: 100}} {
		c.Observe(&p)
	}
	if c.Tracked() != 2 || c.TotalBytes() != 500 || c.TopShare() != 0.8 {
		t.Fatalf("tracked %d, total %d, top share %v; want 2, 500, 0.8", c.Tracked(), c.TotalBytes(), c.TopShare())
	}
	want := []Sample{{Key: KeyFor(1, 0), Bytes: 400, Pkts: 2}, {Key: KeyFor(2, 0), Bytes: 100, Pkts: 1}}
	if got := c.AppendSamples(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples %+v, want %+v", got, want)
	}

	var nilC *Collector
	if nilC.Tracked() != 0 || nilC.TotalBytes() != 0 || nilC.TopShare() != 0 || nilC.AppendSamples(nil) != nil {
		t.Fatal("nil collector must report nothing")
	}
}
