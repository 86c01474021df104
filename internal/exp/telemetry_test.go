package exp

import (
	"bytes"
	"strings"
	"testing"

	"tva/internal/metrics"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

func telemetryCfg(d tvatime.Duration) Config {
	return Config{
		Scheme:          SchemeTVA,
		Attack:          AttackLegacyFlood,
		NumAttackers:    10,
		Duration:        d,
		Seed:            1,
		MetricsInterval: 100 * tvatime.Millisecond,
	}
}

// TestTelemetryDropSumMatchesBottleneck asserts the accounting
// invariant the whole layer hangs on: the reason-attributed counters
// cover every bottleneck drop exactly — no drop site is missed and
// none is double-counted — and the registry's final row agrees.
func TestTelemetryDropSumMatchesBottleneck(t *testing.T) {
	d := short(t)
	res := Run(telemetryCfg(d))
	tel := &res.Telemetry
	if res.BottleneckDrops == 0 {
		t.Fatal("flood produced no drops; the test exercises nothing")
	}
	if got := tel.SchedDrops.Total(); got != res.BottleneckDrops {
		t.Errorf("per-reason drop sum %d != bottleneck drops %d", got, res.BottleneckDrops)
	}
	reg := tel.Metrics
	if reg == nil || reg.Len() == 0 {
		t.Fatal("registry missing or empty")
	}
	last := make([]float64, reg.NumSeries())
	reg.Row(reg.Len()-1, last)
	prefix := metrics.NameSchedDrops + `{reason="`
	var sum float64
	cols := 0
	for i, id := range reg.IDs() {
		if strings.HasPrefix(id, prefix) {
			sum += last[i]
			cols++
		}
	}
	if cols != telemetry.NumDropReasons-1 {
		t.Errorf("%d %s series in the registry, want one per reason (%d)",
			cols, metrics.NameSchedDrops, telemetry.NumDropReasons-1)
	}
	if got := uint64(sum); got != res.BottleneckDrops {
		t.Errorf("final row's %s sum = %d, want %d", metrics.NameSchedDrops, got, res.BottleneckDrops)
	}
}

// TestTelemetryHistogramsAndHostDrops checks the latency histograms
// fill in and host egress loss (silent drops before any router) is
// surfaced rather than folded into router totals.
func TestTelemetryHistogramsAndHostDrops(t *testing.T) {
	d := short(t)
	res := Run(telemetryCfg(d))
	tel := &res.Telemetry
	if tel.QueueDelay.Count() == 0 {
		t.Error("queueing-delay histogram empty")
	}
	if tel.Delivery.Count() == 0 {
		t.Error("end-to-end delivery histogram empty")
	}
	if q50, q99 := tel.QueueDelay.Quantile(0.5), tel.QueueDelay.Quantile(0.99); q99 < q50 {
		t.Errorf("queue delay p99 %v < p50 %v", q99, q50)
	}
	// Default scenarios never overflow a host's own queue (1 Mb/s
	// attackers on 10 Mb/s access links), so host egress loss must
	// read zero — not leak in from router drops.
	if tel.HostEgressDrops != 0 {
		t.Errorf("host egress drops = %d, want 0 when access links are unloaded", tel.HostEgressDrops)
	}

	// An attacker flooding faster than its access link drops in its
	// own egress queue; that silent pre-router loss must be surfaced
	// separately from bottleneck drops.
	over := telemetryCfg(d)
	over.AttackRateBps = 40_000_000 // 4x the 10 Mb/s access link
	res = Run(over)
	if res.Telemetry.HostEgressDrops == 0 {
		t.Error("oversubscribed access link produced no surfaced host egress drops")
	}
}

// TestRegistryDeterministicAcrossWorkers runs the same instrumented
// configs serially and with 8 workers and requires byte-identical
// registry CSV, JSON and exposition: observability must not perturb,
// or be perturbed by, the parallel sweep engine.
func TestRegistryDeterministicAcrossWorkers(t *testing.T) {
	d := short(t)
	cfgs := []Config{telemetryCfg(d), telemetryCfg(d)}
	cfgs[1].Attack = AttackRequestFlood

	serial := RunMany(cfgs, 1)
	parallel := RunMany(cfgs, 8)
	writers := []struct {
		name  string
		write func(*metrics.Registry, *bytes.Buffer) error
	}{
		{"CSV", func(r *metrics.Registry, b *bytes.Buffer) error { return r.WriteCSV(b) }},
		{"JSON", func(r *metrics.Registry, b *bytes.Buffer) error { return r.WriteJSON(b) }},
		{"exposition", func(r *metrics.Registry, b *bytes.Buffer) error { return r.WritePrometheus(b) }},
	}
	for i := range cfgs {
		a, b := serial[i].Telemetry.Metrics, parallel[i].Telemetry.Metrics
		if a == nil || b == nil {
			t.Fatalf("cfg %d: missing registry (serial=%v parallel=%v)", i, a != nil, b != nil)
		}
		for _, w := range writers {
			var ab, bb bytes.Buffer
			if err := w.write(a, &ab); err != nil {
				t.Fatal(err)
			}
			if err := w.write(b, &bb); err != nil {
				t.Fatal(err)
			}
			if ab.Len() == 0 {
				t.Errorf("cfg %d: empty %s output", i, w.name)
			}
			if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
				t.Errorf("cfg %d: %s registry output differs between 1 and 8 workers", i, w.name)
			}
		}
	}
}

// TestTelemetryOffByDefault guards the zero-config contract: without
// MetricsInterval/SpanCapacity the run allocates no registry or
// flight recorder, and enabling them does not change packet-level
// outcomes.
func TestTelemetryOffByDefault(t *testing.T) {
	d := short(t)
	plain := Run(Config{Scheme: SchemeTVA, Attack: AttackLegacyFlood,
		NumAttackers: 10, Duration: d, Seed: 1})
	if plain.Telemetry.Metrics != nil || plain.Telemetry.Spans != nil {
		t.Error("registry/recorder allocated without being requested")
	}
	cfg := telemetryCfg(d)
	cfg.SpanCapacity = 1 << 12
	instr := Run(cfg)
	if instr.Telemetry.Metrics == nil || instr.Telemetry.Spans == nil {
		t.Fatal("registry/recorder missing when requested")
	}
	if plain.BottleneckDrops != instr.BottleneckDrops ||
		plain.CompletionFraction() != instr.CompletionFraction() {
		t.Errorf("telemetry changed outcomes: drops %d vs %d, completion %.4f vs %.4f",
			plain.BottleneckDrops, instr.BottleneckDrops,
			plain.CompletionFraction(), instr.CompletionFraction())
	}
}
