package core

import (
	"reflect"
	"testing"

	"tva/internal/capability"
	"tva/internal/packet"
	"tva/internal/pathid"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// sliceTracer collects classify events for comparison.
type sliceTracer struct{ evs []telemetry.Event }

func (s *sliceTracer) Record(ev telemetry.Event) { s.evs = append(s.evs, ev) }

// equivWorkload builds a deterministic mixed burst exercising every
// Fig. 6 arm: requests (with and without hop stamps), regular packets
// creating/hitting/renewing cache entries (including same-flow trains
// that hit an entry created earlier in the burst), forged and undersized
// capabilities, exhausted budgets, nonce-only misses, legacy packets,
// and already-demoted packets. caps are minted from auth so the same
// workload validates on any router sharing those secrets.
func equivWorkload(auth *capability.Authority, now tvatime.Time) []*packet.Packet {
	mint := func(src, dst packet.Addr, nkb uint16, tsec uint8) uint64 {
		return capability.Fast.MakeCap(auth.PreCap(src, dst, now), nkb, tsec)
	}
	goodAB := mint(1, 2, 32, 10)
	goodCD := mint(3, 4, 32, 10)
	renewCD := mint(3, 4, 64, 20)
	tiny := mint(5, 6, 1, 200) // below (N/T)min
	small := mint(7, 8, 1, 10) // 1 KB budget, exhausted by two packets

	var pkts []*packet.Packet
	add := func(p *packet.Packet) {
		p.TraceID = uint64(len(pkts) + 1)
		pkts = append(pkts, p)
	}

	req := reqPacket(1, 2, 100)
	req.Hdr.Request.WantHops = true
	add(req)
	add(reqPacket(9, 10, 50))

	// Flow (1,2): create, then a nonce train (cache hits).
	add(regPacket(1, 2, packet.KindRegular, 41, []uint64{goodAB}, 32, 10, 400))
	add(regPacket(1, 2, packet.KindNonceOnly, 41, nil, 0, 0, 300))
	add(regPacket(1, 2, packet.KindNonceOnly, 41, nil, 0, 0, 300))
	add(regPacket(1, 2, packet.KindNonceOnly, 42, nil, 0, 0, 300)) // wrong nonce

	// Flow (3,4): create, then renewal replacing the entry.
	add(regPacket(3, 4, packet.KindRegular, 51, []uint64{goodCD}, 32, 10, 200))
	add(regPacket(3, 4, packet.KindRenewal, 52, []uint64{renewCD}, 64, 20, 200))
	add(regPacket(3, 4, packet.KindNonceOnly, 52, nil, 0, 0, 100))

	// Failures: forged cap, under-minimum authorization, budget burn.
	add(regPacket(11, 12, packet.KindRegular, 61, []uint64{0xdeadbeef}, 32, 10, 100))
	add(regPacket(5, 6, packet.KindRegular, 62, []uint64{tiny}, 1, 200, 10))
	add(regPacket(7, 8, packet.KindRegular, 63, []uint64{small}, 1, 10, 600))
	add(regPacket(7, 8, packet.KindNonceOnly, 63, nil, 0, 0, 600)) // exceeds 1 KB

	// Legacy (no header) and an already-demoted packet.
	add(&packet.Packet{Src: 13, Dst: 14, TTL: 9, Size: 700})
	demoted := regPacket(1, 2, packet.KindNonceOnly, 41, nil, 0, 0, 100)
	demoted.Hdr.Demoted = true
	demoted.Hdr.DemoteReason = uint8(telemetry.DropCapInvalid)
	add(demoted)

	// Nonce-only for a flow with no entry at all.
	add(regPacket(15, 16, packet.KindNonceOnly, 70, nil, 0, 0, 100))
	return pkts
}

// TestProcessBatchEquivalence drives the same workload through looped
// Process and through ProcessBatch (in several bursts) on routers
// sharing one authority, and requires identical classes, packet
// mutations, stats, demotion counters, cache accounting, trace
// events, and flight-recorder spans.
func TestProcessBatchEquivalence(t *testing.T) {
	now := at(2)
	mk := func() *Router {
		return NewRouter(RouterConfig{
			Suite: capability.Fast, ID: 7, CacheEntries: 8,
			TrustBoundary: true, Tagger: pathid.NewSeeded(3),
			MinNKB: 4, MinTSec: 10,
		})
	}
	single, batched := mk(), mk()
	batched.auth = single.auth // share secrets so minted values agree

	var trSingle, trBatched sliceTracer
	single.Tracer, batched.Tracer = &trSingle, &trBatched
	spSingle, spBatched := trace.NewRecorder(256), trace.NewRecorder(256)
	single.Spans, batched.Spans = spSingle, spBatched

	wantPkts := equivWorkload(single.auth, now)
	gotPkts := equivWorkload(single.auth, now)

	var wantClasses, gotClasses []packet.Class
	for _, p := range wantPkts {
		wantClasses = append(wantClasses, single.Process(p, 5, now))
	}
	// Batch in uneven bursts so the minter snapshot resets mid-stream.
	for lo := 0; lo < len(gotPkts); {
		hi := lo + 6
		if hi > len(gotPkts) {
			hi = len(gotPkts)
		}
		b := packet.NewBatch(hi - lo)
		for _, p := range gotPkts[lo:hi] {
			b.Append(p)
		}
		batched.ProcessBatch(b, 5, now)
		for i := 0; i < b.Len(); i++ {
			gotClasses = append(gotClasses, b.Class(i))
			if b.Class(i) != b.At(i).Class {
				t.Errorf("slot %d: batch class %v != packet class %v", i, b.Class(i), b.At(i).Class)
			}
		}
		lo = hi
	}

	if !reflect.DeepEqual(wantClasses, gotClasses) {
		t.Errorf("classes diverge:\n single %v\n batched %v", wantClasses, gotClasses)
	}
	for i := range wantPkts {
		if !reflect.DeepEqual(wantPkts[i], gotPkts[i]) {
			t.Errorf("packet %d mutated differently:\n single %+v (hdr %+v)\n batched %+v (hdr %+v)",
				i, wantPkts[i], wantPkts[i].Hdr, gotPkts[i], gotPkts[i].Hdr)
		}
	}
	if single.Stats != batched.Stats {
		t.Errorf("stats diverge:\n single %+v\n batched %+v", single.Stats, batched.Stats)
	}
	if single.Demotions != batched.Demotions {
		t.Errorf("demotions diverge:\n single %v\n batched %v", single.Demotions, batched.Demotions)
	}
	sc, bc := single.Cache(), batched.Cache()
	if sc.Creates != bc.Creates || sc.Hits != bc.Hits || sc.Misses != bc.Misses || sc.Evictions != bc.Evictions {
		t.Errorf("cache accounting diverges: single c=%d h=%d m=%d e=%d, batched c=%d h=%d m=%d e=%d",
			sc.Creates, sc.Hits, sc.Misses, sc.Evictions, bc.Creates, bc.Hits, bc.Misses, bc.Evictions)
	}
	if !reflect.DeepEqual(trSingle.evs, trBatched.evs) {
		t.Errorf("trace events diverge:\n single %+v\n batched %+v", trSingle.evs, trBatched.evs)
	}
	if !reflect.DeepEqual(spSingle.Snapshot(), spBatched.Snapshot()) {
		t.Errorf("spans diverge:\n single %+v\n batched %+v", spSingle.Snapshot(), spBatched.Snapshot())
	}
}

// TestProcessBatchSkipsNilSlots verifies Take-ed slots pass through
// untouched.
func TestProcessBatchSkipsNilSlots(t *testing.T) {
	r := newTestRouter(false)
	b := packet.NewBatch(3)
	b.Append(reqPacket(1, 2, 10))
	b.Append(reqPacket(3, 4, 10))
	b.Append(reqPacket(5, 6, 10))
	b.Take(1)
	r.ProcessBatch(b, 0, at(0))
	if r.Stats.Requests != 2 {
		t.Fatalf("Requests = %d, want 2 (nil slot skipped)", r.Stats.Requests)
	}
	if b.Class(0) != packet.ClassRequest || b.Class(2) != packet.ClassRequest {
		t.Fatalf("classes = %v %v", b.Class(0), b.Class(2))
	}
}

// TestProcessBatchZeroAlloc pins the amortized allocation freedom of
// the batched hot path at steady state.
func TestProcessBatchZeroAlloc(t *testing.T) {
	r := newTestRouter(false)
	now := at(1)
	cap := grantFor(t, r, 1, 2, 1<<12, 200, now)
	first := regPacket(1, 2, packet.KindRegular, 5, []uint64{cap}, 1<<12, 200, 100)
	if got := r.Process(first, 0, now); got != packet.ClassRegular {
		t.Fatalf("setup packet classified %v", got)
	}
	b := packet.NewBatch(32)
	pkts := make([]*packet.Packet, 32)
	for i := range pkts {
		pkts[i] = regPacket(1, 2, packet.KindNonceOnly, 5, nil, 0, 0, 1)
	}
	avg := testing.AllocsPerRun(50, func() {
		b.Reset()
		for _, p := range pkts {
			b.Append(p)
		}
		r.ProcessBatch(b, 0, now)
	})
	if avg != 0 {
		t.Fatalf("ProcessBatch allocates %.1f/op, want 0", avg)
	}
}
