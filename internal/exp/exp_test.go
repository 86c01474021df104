package exp

import (
	"testing"

	"tva/internal/netsim"
	"tva/internal/tvatime"
)

// Integration tests asserting the paper's qualitative results on short
// runs (the full-length figures are regenerated by cmd/tvasim and the
// root benchmarks). Durations are compressed to keep `go test` fast.

func short(t *testing.T) tvatime.Duration {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	return 15 * tvatime.Second
}

func TestBaselineNoAttackAllSchemes(t *testing.T) {
	d := short(t)
	for _, s := range []Scheme{SchemeInternet, SchemeTVA, SchemeSIFF, SchemePushback} {
		r := Run(Config{Scheme: s, Attack: AttackNone, Duration: d, Seed: 1})
		if f := r.CompletionFraction(); f < 0.95 {
			t.Errorf("%v: baseline completion %.3f < 0.95", s, f)
		}
		// Paper §5.3: 20KB at 60ms RTT ≈ 0.31s.
		if avg := r.AvgTransferTime(); avg < 0.25 || avg > 0.45 {
			t.Errorf("%v: baseline transfer time %.3fs, want ≈0.31s", s, avg)
		}
	}
}

func TestFig8TVAUnaffectedByLegacyFlood(t *testing.T) {
	d := short(t)
	base := Run(Config{Scheme: SchemeTVA, Attack: AttackNone, Duration: d, Seed: 1})
	atk := Run(Config{Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: 100, Duration: d, Seed: 1})
	if f := atk.CompletionFraction(); f < 0.95 {
		t.Errorf("TVA completion %.3f under 10x legacy flood, want ≥0.95", f)
	}
	if atk.AvgTransferTime() > base.AvgTransferTime()*1.25 {
		t.Errorf("TVA transfer time grew under legacy flood: %.3f vs %.3f",
			atk.AvgTransferTime(), base.AvgTransferTime())
	}
}

func TestFig8InternetCollapsesUnderLegacyFlood(t *testing.T) {
	d := short(t)
	r := Run(Config{Scheme: SchemeInternet, Attack: AttackLegacyFlood, NumAttackers: 100, Duration: d, Seed: 1})
	tva := Run(Config{Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: 100, Duration: d, Seed: 1})
	// The Internet must lose most of its throughput relative to TVA:
	// compare completed-transfer counts, which capture both failures
	// and stalls.
	internetDone, tvaDone := 0, 0
	for _, tr := range r.Transfers {
		if tr.Completed {
			internetDone++
		}
	}
	for _, tr := range tva.Transfers {
		if tr.Completed {
			tvaDone++
		}
	}
	if internetDone*5 > tvaDone {
		t.Errorf("Internet completed %d vs TVA %d under 10x flood; expected collapse", internetDone, tvaDone)
	}
}

func TestFig8SIFFDegradesGradually(t *testing.T) {
	d := short(t)
	k10 := Run(Config{Scheme: SchemeSIFF, Attack: AttackLegacyFlood, NumAttackers: 10, Duration: d, Seed: 1})
	k100 := Run(Config{Scheme: SchemeSIFF, Attack: AttackLegacyFlood, NumAttackers: 100, Duration: d, Seed: 1})
	if f10, f100 := k10.CompletionFraction(), k100.CompletionFraction(); f100 >= f10 {
		t.Errorf("SIFF completion did not degrade with attack intensity: k10=%.3f k100=%.3f", f10, f100)
	}
	// The paper's model: completion ≈ 1-p^9 ≈ 0.61 at k=100. Allow a
	// generous band for the short run.
	if f := k100.CompletionFraction(); f < 0.3 || f > 0.9 {
		t.Errorf("SIFF k=100 completion %.3f, expected in the 1-p^9 ballpark (~0.6)", f)
	}
}

func TestFig9TVARequestFloodHarmless(t *testing.T) {
	d := short(t)
	r := Run(Config{Scheme: SchemeTVA, Attack: AttackRequestFlood, NumAttackers: 100, Duration: d, Seed: 1})
	if f := r.CompletionFraction(); f < 0.95 {
		t.Errorf("TVA completion %.3f under request flood, want ≥0.95", f)
	}
	if avg := r.AvgTransferTime(); avg > 0.5 {
		t.Errorf("TVA transfer time %.3fs under request flood, want ≈0.32s", avg)
	}
}

func TestFig9SIFFRequestFloodHurts(t *testing.T) {
	d := short(t)
	siff := Run(Config{Scheme: SchemeSIFF, Attack: AttackRequestFlood, NumAttackers: 100, Duration: d, Seed: 1})
	tva := Run(Config{Scheme: SchemeTVA, Attack: AttackRequestFlood, NumAttackers: 100, Duration: d, Seed: 1})
	if siff.CompletionFraction() >= tva.CompletionFraction() {
		t.Errorf("SIFF (%.3f) should underperform TVA (%.3f) under request floods",
			siff.CompletionFraction(), tva.CompletionFraction())
	}
}

func TestFig10TVAColluderFloodShared(t *testing.T) {
	d := short(t)
	r := Run(Config{Scheme: SchemeTVA, Attack: AttackAuthorizedFlood, NumAttackers: 100, Duration: d, Seed: 1})
	if f := r.CompletionFraction(); f < 0.95 {
		t.Errorf("TVA completion %.3f under authorized flood, want ≥0.95 (per-destination fairness)", f)
	}
	// Paper: 0.31s → 0.33s. Allow up to 0.5s.
	if avg := r.AvgTransferTime(); avg > 0.5 {
		t.Errorf("TVA transfer time %.3fs under authorized flood, want ≈0.33s", avg)
	}
}

func TestFig11TVADamageBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	r := Run(Config{
		Scheme: SchemeTVA, Attack: AttackImpreciseAuth,
		NumAttackers: 100, AttackGroups: 1,
		AttackStart: 5 * tvatime.Second, Duration: 30 * tvatime.Second, Seed: 1,
	})
	if f := r.CompletionFraction(); f < 0.95 {
		t.Errorf("completion %.3f, want ≥0.95 (fine-grained caps bound damage)", f)
	}
	// After the attack (+ recovery margin), transfers return to baseline.
	starts, durs := r.Series()
	for i, st := range starts {
		if st > 20 && durs[i] > 1.0 {
			t.Errorf("transfer at t=%.1fs took %.2fs; attack damage should be bounded to <5s after start", st, durs[i])
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	d := short(t)
	cfg := Config{Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: 20, Duration: d, Seed: 7}
	a := Run(cfg)
	b := Run(cfg)
	if len(a.Transfers) != len(b.Transfers) {
		t.Fatalf("same seed, different transfer counts: %d vs %d", len(a.Transfers), len(b.Transfers))
	}
	for i := range a.Transfers {
		if a.Transfers[i] != b.Transfers[i] {
			t.Fatalf("same seed, different record %d: %+v vs %+v", i, a.Transfers[i], b.Transfers[i])
		}
	}
}

// TestRunManyAttackerSweep runs a two-point attacker sweep through
// RunMany: one result per config, in order, each with completions.
func TestRunManyAttackerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	var cfgs []Config
	for _, n := range []int{1, 10} {
		cfgs = append(cfgs, Config{Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: n, Duration: 5 * tvatime.Second, Seed: 1})
	}
	results := RunMany(cfgs, 0)
	if len(results) != 2 || results[0].Cfg.NumAttackers != 1 || results[1].Cfg.NumAttackers != 10 {
		t.Fatalf("sweep results wrong: %d results", len(results))
	}
	for _, res := range results {
		if res.CompletionFraction() <= 0 {
			t.Errorf("k=%d: no completions", res.Cfg.NumAttackers)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Transfers: []TransferRecord{
		{Start: 0, End: tvatime.FromSeconds(1), Completed: true},
		{Start: tvatime.FromSeconds(2), End: tvatime.FromSeconds(5), Completed: true},
		{Start: tvatime.FromSeconds(3), End: tvatime.FromSeconds(4), Completed: false},
	}}
	if f := r.CompletionFraction(); f < 0.66 || f > 0.67 {
		t.Errorf("fraction = %f", f)
	}
	if avg := r.AvgTransferTime(); avg != 2.0 {
		t.Errorf("avg = %f, want 2.0", avg)
	}
	starts, durs := r.Series()
	if len(starts) != 2 || len(durs) != 2 || starts[0] != 0 || durs[1] != 3 {
		t.Errorf("series wrong: %v %v", starts, durs)
	}
	empty := &Result{}
	if empty.CompletionFraction() != 0 || empty.AvgTransferTime() != 0 {
		t.Error("empty result helpers should return 0")
	}
}

func TestSchemeAttackStrings(t *testing.T) {
	if SchemeTVA.String() != "tva" || AttackLegacyFlood.String() != "legacy-flood" {
		t.Error("String() methods wrong")
	}
}

func TestAddrHelpers(t *testing.T) {
	if UserAddr(0) == UserAddr(1) || AttackerAddr(0) == UserAddr(0) {
		t.Error("address helpers collide")
	}
	if UserAddr(300) == UserAddr(44) {
		t.Error("user addresses wrap at 256")
	}
}

// TestIncrementalDeployment verifies the §8 story: upgrading only the
// router ahead of the congested link already confers nearly the full
// benefit, and an undeployed "TVA" network degrades to the Internet
// baseline.
func TestIncrementalDeployment(t *testing.T) {
	d := short(t)
	base := Config{Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: 100, Duration: d, Seed: 1}

	full := base
	full.Deployment = DeployFull
	bottleneck := base
	bottleneck.Deployment = DeployBottleneckOnly
	none := base
	none.Deployment = DeployNone

	fullRes := Run(full)
	bnRes := Run(bottleneck)
	noneRes := Run(none)

	if f := bnRes.CompletionFraction(); f < 0.95 {
		t.Errorf("bottleneck-only deployment completion %.3f, want ≥0.95 (incremental benefit)", f)
	}
	if bnRes.AvgTransferTime() > fullRes.AvgTransferTime()*1.5 {
		t.Errorf("bottleneck-only deployment much slower than full: %.3f vs %.3f",
			bnRes.AvgTransferTime(), fullRes.AvgTransferTime())
	}
	// With no deployment there is no protection at all.
	internet := Run(Config{Scheme: SchemeInternet, Attack: AttackLegacyFlood, NumAttackers: 100, Duration: d, Seed: 1})
	if noneRes.CompletionFraction() > internet.CompletionFraction()+0.15 {
		t.Errorf("undeployed TVA (%.3f) should match the Internet baseline (%.3f)",
			noneRes.CompletionFraction(), internet.CompletionFraction())
	}
}

// TestFig8EventBudget counts the events of one Fig. 8 run per scheme:
// the simulator's work, which deferring an idle link's transmit-done
// cut by nearly a third (DESIGN.md §7). The bounds sit a little above
// the counts; a flood packet that costs a third event again breaks
// them.
func TestFig8EventBudget(t *testing.T) {
	d := short(t)
	for _, c := range []struct {
		s   Scheme
		max uint64
	}{{SchemeInternet, 430_000}, {SchemeTVA, 490_000}} {
		var sim *netsim.Sim
		run(Config{Scheme: c.s, Attack: AttackLegacyFlood, NumAttackers: 100, Duration: d, Seed: 1},
			hooks{bottleneck: func(lr *netsim.Iface) { sim = lr.Node.Sim }})
		if sim.Events > c.max {
			t.Errorf("%v: %d events, want at most %d", c.s, sim.Events, c.max)
		}
		t.Logf("%v: %d events", c.s, sim.Events)
	}
}
