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
		fmt.Fprintf(&b, "run %d: util=%.9f drops=%d transfers=%d jain=%.9f maxmin=%.9f\n",
			i, r.BottleneckUtilization, r.BottleneckDrops, len(r.Transfers), r.FairnessJain, r.MaxMinRatio)
		for _, tr := range r.Transfers {
			fmt.Fprintf(&b, "  u%d %d..%d %v\n", tr.User, tr.Start, tr.End, tr.Completed)
		}
	}
	return b.String()
}

// TestRunManyDeterministicAcrossWorkers runs the same configs serially
// and with 8 workers and requires byte-identical results, fairness
// included: worker count must never leak into simulation outcomes.
func TestRunManyDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	var cfgs []Config
	for _, scheme := range []Scheme{SchemeTVA, SchemeInternet} {
		for _, attack := range []Attack{AttackLegacyFlood, AttackRequestFlood} {
			for _, seed := range []int64{1, 2} {
				cfgs = append(cfgs, Config{
					Scheme: scheme, Attack: attack, NumAttackers: 5,
					Duration: 6 * tvatime.Second, AttackRateBps: 2_000_000, Seed: seed,
				})
			}
		}
	}

	serial := summarize(RunMany(cfgs, 1))
	parallel := summarize(RunMany(cfgs, 8))
	if serial != parallel {
		t.Fatalf("serial and 8-worker sweeps diverge:\n--- serial ---\n%s--- parallel ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "transfers=") || strings.Count(serial, "run ") != len(cfgs) {
		t.Fatalf("summary malformed:\n%s", serial)
	}
}

// TestSweepParallelMatchesSweep runs an attacker-count sweep of one
// scheme, the figures' shape, serially and across 4 workers and
// requires every point to match, fairness included.
func TestSweepParallelMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	var cfgs []Config
	for _, n := range []int{1, 4, 8} {
		cfgs = append(cfgs, Config{
			Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: n,
			Duration: 5 * tvatime.Second, Seed: 3,
		})
	}
	want := RunMany(cfgs, 1)
	got := RunMany(cfgs, 4)
	if len(got) != len(want) {
		t.Fatalf("point counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		w, g := summarize(want[i:i+1]), summarize(got[i:i+1])
		if g != w {
			t.Fatalf("point %d (k=%d) differs:\n--- serial ---\n%s--- parallel ---\n%s",
				i, cfgs[i].NumAttackers, w, g)
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
