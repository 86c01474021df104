package exp

import (
	"fmt"
	"strings"
	"testing"

	"tva/internal/tvatime"
)

// summarize renders a result's observable outputs canonically (the
// Config is excluded: it is an input).
func summarize(results []*Result) string {
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "run %d: util=%.9f drops=%d transfers=%d\n",
			i, r.BottleneckUtilization, r.BottleneckDrops, len(r.Transfers))
		for _, tr := range r.Transfers {
			fmt.Fprintf(&b, "  u%d %d..%d %v\n", tr.User, tr.Start, tr.End, tr.Completed)
		}
	}
	return b.String()
}

// TestRunManyDeterministicAcrossWorkers runs the same sweep serially
// and with 8 workers and requires byte-identical results: worker count
// must never leak into simulation outcomes.
func TestRunManyDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	d := 6 * tvatime.Second
	spec := SweepSpec{
		Base:      Config{Duration: d, AttackRateBps: 2_000_000},
		Schemes:   []Scheme{SchemeTVA, SchemeInternet},
		Attacks:   []Attack{AttackLegacyFlood, AttackRequestFlood},
		Attackers: []int{5},
		Seeds:     []int64{1, 2},
	}
	cfgs := spec.Expand()
	if len(cfgs) != 8 {
		t.Fatalf("grid expanded to %d configs, want 8", len(cfgs))
	}

	serial := summarize(RunMany(cfgs, 1))
	parallel := summarize(RunMany(cfgs, 8))
	if serial != parallel {
		t.Fatalf("serial and 8-worker sweeps diverge:\n--- serial ---\n%s--- parallel ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "transfers=") || strings.Count(serial, "run ") != 8 {
		t.Fatalf("summary malformed:\n%s", serial)
	}
}

// TestSweepParallelMatchesSweep checks the parallel sweep façade
// returns exactly what the serial Sweep does.
func TestSweepParallelMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	base := Config{Scheme: SchemeTVA, Attack: AttackLegacyFlood, Duration: 5 * tvatime.Second, Seed: 3}
	counts := []int{1, 4, 8}
	want := Sweep(base, counts)
	got := SweepParallel(base, counts, 4)
	if len(got) != len(want) {
		t.Fatalf("point counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestRunManyOrdering checks results land at their config's index even
// when workers finish out of order.
func TestRunManyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	cfgs := make([]Config, 6)
	for i := range cfgs {
		cfgs[i] = Config{Duration: 2 * tvatime.Second, NumUsers: i + 1, Seed: int64(i)}
	}
	results := RunMany(cfgs, 3)
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
		if r.Cfg.NumUsers != i+1 {
			t.Fatalf("result %d has NumUsers %d, want %d (misordered)", i, r.Cfg.NumUsers, i+1)
		}
	}
}
