// Benchmarks regenerating every table and figure in the paper's
// evaluation (run: go test -bench=. -benchmem):
//
//   - BenchmarkTable1_*: per-packet-type processing cost through the
//     full forwarding path (§6 Table 1). Compare orderings, not
//     absolute ns (different hardware and substrate).
//   - BenchmarkFig12_*: peak forwarding rate per packet type at
//     saturating offered load (§6 Fig. 12), reported as kpps.
//   - BenchmarkFig8/9/10/11_*: the simulation scenarios at compressed
//     duration, reporting completion fraction and transfer time as
//     custom metrics (full-length runs: cmd/tvasim).
//   - BenchmarkAblation_*: the design choices called out in DESIGN.md
//     §5 (capability caching, per-destination fair queuing, bounded
//     router state).
package tva_test

import (
	"testing"
	"time"

	"tva"

	"tva/internal/flowcache"
	"tva/internal/overlay"
	"tva/internal/tvatime"
)

// --- Table 1 ---

func benchTable1(b *testing.B, kind overlay.PacketKind) {
	w := overlay.NewWorkload(kind)
	// Streaming metrics stay attached while Table 1 is measured: the
	// 0 allocs/op rows hold with observability on, not just off.
	m := overlay.NewBenchMetrics(w)
	now := tvatime.WallClock{}.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ForwardOneObserved(now, m)
		if i%overlay.BenchTickEvery == 0 {
			m.Tick()
		}
	}
}

func BenchmarkTable1_LegacyIP(b *testing.B)         { benchTable1(b, overlay.KindLegacyIP) }
func BenchmarkTable1_Request(b *testing.B)          { benchTable1(b, overlay.KindRequestPkt) }
func BenchmarkTable1_RegularWithEntry(b *testing.B) { benchTable1(b, overlay.KindRegularWithEntry) }
func BenchmarkTable1_RegularNoEntry(b *testing.B)   { benchTable1(b, overlay.KindRegularNoEntry) }
func BenchmarkTable1_RenewalWithEntry(b *testing.B) { benchTable1(b, overlay.KindRenewalWithEntry) }
func BenchmarkTable1_RenewalNoEntry(b *testing.B)   { benchTable1(b, overlay.KindRenewalNoEntry) }

// --- Fig. 12 ---

func benchFig12(b *testing.B, kind overlay.PacketKind) {
	var out float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := overlay.NewWorkload(kind)
		out = overlay.MeasureForwarding(w, 4_000_000, 150*time.Millisecond)
	}
	b.ReportMetric(out/1000, "kpps")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkFig12_LegacyIP(b *testing.B)         { benchFig12(b, overlay.KindLegacyIP) }
func BenchmarkFig12_Request(b *testing.B)          { benchFig12(b, overlay.KindRequestPkt) }
func BenchmarkFig12_RegularWithEntry(b *testing.B) { benchFig12(b, overlay.KindRegularWithEntry) }
func BenchmarkFig12_RegularNoEntry(b *testing.B)   { benchFig12(b, overlay.KindRegularNoEntry) }
func BenchmarkFig12_RenewalWithEntry(b *testing.B) { benchFig12(b, overlay.KindRenewalWithEntry) }
func BenchmarkFig12_RenewalNoEntry(b *testing.B)   { benchFig12(b, overlay.KindRenewalNoEntry) }

// --- Figs. 8–11 (compressed simulations) ---

const benchSimSeconds = 12 * time.Second

func benchScenario(b *testing.B, scheme tva.Scheme, attack tva.Attack, attackers int) {
	var res *tva.SimResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = tva.RunSim(tva.SimConfig{
			Scheme:       scheme,
			Attack:       attack,
			NumAttackers: attackers,
			Duration:     benchSimSeconds,
			Seed:         1,
		})
	}
	b.ReportMetric(res.CompletionFraction(), "completion")
	b.ReportMetric(res.AvgTransferTime(), "xfer-sec")
}

func BenchmarkFig8_LegacyFlood_TVA(b *testing.B) {
	benchScenario(b, tva.SchemeTVA, tva.AttackLegacyFlood, 100)
}

func BenchmarkFig8_LegacyFlood_Internet(b *testing.B) {
	benchScenario(b, tva.SchemeInternet, tva.AttackLegacyFlood, 100)
}

func BenchmarkFig8_LegacyFlood_SIFF(b *testing.B) {
	benchScenario(b, tva.SchemeSIFF, tva.AttackLegacyFlood, 100)
}

func BenchmarkFig8_LegacyFlood_Pushback(b *testing.B) {
	benchScenario(b, tva.SchemePushback, tva.AttackLegacyFlood, 100)
}

func BenchmarkFig9_RequestFlood_TVA(b *testing.B) {
	benchScenario(b, tva.SchemeTVA, tva.AttackRequestFlood, 100)
}

func BenchmarkFig9_RequestFlood_SIFF(b *testing.B) {
	benchScenario(b, tva.SchemeSIFF, tva.AttackRequestFlood, 100)
}

func BenchmarkFig10_AuthorizedFlood_TVA(b *testing.B) {
	benchScenario(b, tva.SchemeTVA, tva.AttackAuthorizedFlood, 100)
}

func BenchmarkFig10_AuthorizedFlood_SIFF(b *testing.B) {
	benchScenario(b, tva.SchemeSIFF, tva.AttackAuthorizedFlood, 100)
}

func BenchmarkFig11_ImpreciseAuth_TVA(b *testing.B) {
	var res *tva.SimResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = tva.RunSim(tva.SimConfig{
			Scheme:       tva.SchemeTVA,
			Attack:       tva.AttackImpreciseAuth,
			NumAttackers: 100,
			AttackGroups: 1,
			AttackStart:  5 * time.Second,
			Duration:     20 * time.Second,
			Seed:         1,
		})
	}
	b.ReportMetric(res.CompletionFraction(), "completion")
	b.ReportMetric(res.MaxTransferTime(), "max-xfer-sec")
}

func BenchmarkFig11_ImpreciseAuth_SIFF(b *testing.B) {
	var res *tva.SimResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = tva.RunSim(tva.SimConfig{
			Scheme:       tva.SchemeSIFF,
			Attack:       tva.AttackImpreciseAuth,
			NumAttackers: 100,
			AttackGroups: 1,
			AttackStart:  5 * time.Second,
			Duration:     20 * time.Second,
			Seed:         1,
		})
	}
	b.ReportMetric(res.CompletionFraction(), "completion")
	b.ReportMetric(res.MaxTransferTime(), "max-xfer-sec")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblation_NonceCache quantifies §3.7's capability caching:
// the per-packet cost and wire overhead of nonce-only packets versus
// always attaching the full capability list.
func BenchmarkAblation_NonceCache(b *testing.B) {
	cases := []struct {
		name string
		kind overlay.PacketKind
	}{
		{"nonce-only(cached)", overlay.KindRegularWithEntry},
		{"full-caps(uncached)", overlay.KindRegularNoEntry},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w := overlay.NewWorkload(c.kind)
			now := tvatime.WallClock{}.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ForwardOne(now)
			}
		})
	}
}

// BenchmarkAblation_FairQueue contrasts TVA's per-destination fair
// queuing with SIFF's single priority FIFO under the colluder attack:
// the fair queue is what keeps the victim's completion near 1.
func BenchmarkAblation_FairQueue(b *testing.B) {
	b.Run("per-dest-fq", func(b *testing.B) {
		benchScenario(b, tva.SchemeTVA, tva.AttackAuthorizedFlood, 100)
	})
	b.Run("single-fifo", func(b *testing.B) {
		benchScenario(b, tva.SchemeSIFF, tva.AttackAuthorizedFlood, 100)
	})
}

// BenchmarkAblation_CacheBound measures the bounded flow cache under
// adversarial flow churn at its bound versus comfortably oversized:
// the fixed-memory design keeps admission O(log n) with no growth.
func BenchmarkAblation_CacheBound(b *testing.B) {
	for _, size := range []int{256, 1 << 16} {
		name := "bounded-256"
		if size > 256 {
			name = "oversized-64k"
		}
		b.Run(name, func(b *testing.B) {
			c := flowcache.New(size)
			now := tvatime.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := flowcache.Key{Src: tva.Addr(i), Dst: 1}
				// Minimum-rate flows: ttl expires almost immediately,
				// so the bounded cache recycles its slots.
				c.Create(key, 1, 1, 1<<20, 1, now.Add(tvatime.Second), 40, now)
				now = now.Add(40 * tvatime.Microsecond)
			}
			if c.Len() > size {
				b.Fatalf("cache exceeded bound: %d > %d", c.Len(), size)
			}
		})
	}
}
