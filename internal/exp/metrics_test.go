package exp

import (
	"bytes"
	"strings"
	"testing"

	"tva/internal/metrics"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// metricsCfg is a flood heavy enough to trip the attack-onset
// detector: 20 Mb/s of legacy flood into a 10 Mb/s bottleneck drops
// thousands of packets per second against a near-zero quiet baseline.
func metricsCfg(d tvatime.Duration) Config {
	return Config{
		Scheme:          SchemeTVA,
		Attack:          AttackLegacyFlood,
		NumAttackers:    20,
		Duration:        d,
		Seed:            7,
		MetricsInterval: 100 * tvatime.Millisecond,
	}
}

// healthLog renders a run's health transitions the way tvasim prints
// them (and metrics-smoke diffs them).
func healthLog(res *Result) []string {
	var out []string
	for _, tr := range res.Telemetry.Health.Transitions() {
		out = append(out, tr.String())
	}
	return out
}

// TestMetricsRegistryDeterministic is the acceptance criterion pinned
// in code: two same-seed flood runs emit byte-identical registry
// CSV/JSON/exposition and byte-identical health transition lines —
// including the attack-onset transition at the same sample offset.
func TestMetricsRegistryDeterministic(t *testing.T) {
	d := short(t)
	a, b := Run(metricsCfg(d)), Run(metricsCfg(d))
	for _, res := range []*Result{a, b} {
		if res.Telemetry.Metrics == nil || res.Telemetry.Health == nil {
			t.Fatal("metrics registry or health detector missing")
		}
	}

	var ac, bc, aj, bj, ap, bp bytes.Buffer
	for _, pair := range []struct {
		res  *Result
		c, j *bytes.Buffer
		p    *bytes.Buffer
	}{{a, &ac, &aj, &ap}, {b, &bc, &bj, &bp}} {
		reg := pair.res.Telemetry.Metrics
		if err := reg.WriteCSV(pair.c); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(pair.j); err != nil {
			t.Fatal(err)
		}
		if err := reg.WritePrometheus(pair.p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ac.Bytes(), bc.Bytes()) {
		t.Error("same-seed runs emit different registry CSV")
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Error("same-seed runs emit different registry JSON")
	}
	if !bytes.Equal(ap.Bytes(), bp.Bytes()) {
		t.Error("same-seed runs emit different exposition")
	}

	la, lb := healthLog(a), healthLog(b)
	if strings.Join(la, "|") != strings.Join(lb, "|") {
		t.Fatalf("health transitions differ across same-seed runs:\n%v\n%v", la, lb)
	}
	var onset bool
	for _, line := range la {
		if strings.Contains(line, "-> under-attack") {
			onset = true
		}
	}
	if !onset {
		t.Fatalf("flood produced no under-attack transition: %v", la)
	}

	// The parsed exposition must carry both data-plane and health
	// series, plus the synthetic :rate derivations (the registry has
	// ticked far more than twice by the end of the run).
	sc, err := metrics.ParseProm(bytes.NewReader(ap.Bytes()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	for _, name := range []string{
		"tva_queue_pkts", "tva_regular_queues", "tva_token_bucket_bytes",
		"tva_flowcache_entries", "tva_goodput_bytes_total",
		"tva_sched_drops_total", "tva_queue_wait_ns", "tva_tx_burst_fill",
		"tva_legit_completion_fraction", "tva_health_state",
		"tva_health_transitions_total", "tva_sched_drops_total:rate",
	} {
		if !sc.Has(name) {
			t.Errorf("exposition missing series %s", name)
		}
	}
}

// TestMetricsHealthLifecycleAndSpans checks the detector walks
// healthy -> degraded -> under-attack during the flood, that the
// registry's final tva_health_state row agrees with the detector, and
// that each transition also lands in the flight recorder as an
// EdgeHealth span with matching from/to encoding.
func TestMetricsHealthLifecycleAndSpans(t *testing.T) {
	short(t)
	// Short run with a recorder big enough that nothing wraps: health
	// spans share ring shards with packet spans, so wraparound would
	// evict them like any other old span.
	cfg := metricsCfg(5 * tvatime.Second)
	cfg.SpanCapacity = 1 << 18
	res := Run(cfg)
	if res.Telemetry.Spans.Overwritten() != 0 {
		t.Fatalf("recorder wrapped (%d evicted); grow SpanCapacity", res.Telemetry.Spans.Overwritten())
	}
	det := res.Telemetry.Health
	trs := det.Transitions()
	if len(trs) < 2 {
		t.Fatalf("want >= 2 transitions (degraded then under-attack), got %v", healthLog(res))
	}
	if trs[0].From != metrics.Healthy || trs[0].To != metrics.Degraded {
		t.Errorf("first transition %s, want healthy -> degraded", trs[0])
	}
	if trs[1].To != metrics.UnderAttack {
		t.Errorf("second transition %s, want -> under-attack", trs[1])
	}

	// Registry state column agrees with the detector's live state.
	var stateCol float64
	found := false
	res.Telemetry.Metrics.Each(func(s metrics.SeriesView) {
		if s.Name == "tva_health_state" {
			stateCol, found = s.Value, true
		}
	})
	if !found {
		t.Fatal("tva_health_state not registered")
	}
	if metrics.State(stateCol) != det.State() {
		t.Errorf("registry health state %v != detector %v", metrics.State(stateCol), det.State())
	}

	// EdgeHealth spans mirror the transition log one-for-one.
	all := res.Telemetry.Spans.Snapshot()
	var spans []trace.Span
	for _, sp := range all {
		if sp.Edge == trace.EdgeHealth {
			spans = append(spans, sp)
		}
	}
	if len(spans) != len(trs) {
		t.Fatalf("EdgeHealth spans = %d, transitions = %d", len(spans), len(trs))
	}
	for i, sp := range spans {
		if sp.Time != trs[i].At {
			t.Errorf("span %d at %v, transition at %v", i, sp.Time, trs[i].At)
		}
		if trace.HealthStateName(sp.Kind-1) != trs[i].From.String() ||
			trace.HealthStateName(sp.Class) != trs[i].To.String() {
			t.Errorf("span %d encodes %s -> %s, want %s", i,
				trace.HealthStateName(sp.Kind-1), trace.HealthStateName(sp.Class), trs[i])
		}
	}
	// Health spans are control-plane annotations: they must not leak
	// into packet lifecycle chain analysis.
	for _, ch := range trace.Chains(all) {
		for _, sp := range ch.Spans {
			if sp.Edge == trace.EdgeHealth {
				t.Fatal("EdgeHealth span leaked into a lifecycle chain")
			}
		}
	}
}

// TestMetricsOffByDefault extends the zero-config contract to the
// registry: no MetricsInterval, no registry, no detector — and an
// instrumented run still reproduces identical packet-level outcomes
// (the sketch hook and gauge closures stay off the decision path).
func TestMetricsOffByDefault(t *testing.T) {
	d := short(t)
	cfg := metricsCfg(d)
	cfg.MetricsInterval = 0
	res := Run(cfg)
	if res.Telemetry.Metrics != nil || res.Telemetry.Health != nil {
		t.Error("registry/detector allocated without being requested")
	}
	instr := Run(metricsCfg(d))
	if res.BottleneckDrops != instr.BottleneckDrops ||
		res.CompletionFraction() != instr.CompletionFraction() {
		t.Errorf("metrics changed outcomes: drops %d vs %d, completion %.4f vs %.4f",
			res.BottleneckDrops, instr.BottleneckDrops,
			res.CompletionFraction(), instr.CompletionFraction())
	}
}
