package exp

import (
	"testing"

	"tva/internal/core"
	"tva/internal/netsim"
	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// Transfers degrade but complete across a lossy bottleneck: the TCP
// stack retransmits data and the shim's reliability engine retransmits
// the capability handshake, so 10–20% wire loss slows transfers
// instead of killing them.
func TestLossyBottleneckDegradesGracefully(t *testing.T) {
	d := short(t)
	base := Config{Scheme: SchemeTVA, Attack: AttackNone, Duration: d, Seed: 3}
	pts := LossSweep(base, []float64{0, 0.1, 0.2})
	// Not 1.0: each user's final transfer is still in flight when the
	// measurement window closes and counts as incomplete.
	if pts[0].CompletionFraction < 0.95 {
		t.Fatalf("lossless completion %.3f, want ≥0.95", pts[0].CompletionFraction)
	}
	for _, p := range pts[1:] {
		if p.CompletionFraction == 0 {
			t.Errorf("completion 0 at loss %.0f%%; transfers should degrade, not die", p.LossRate*100)
		}
		if p.LinkDrops == 0 {
			t.Errorf("no link drops recorded at loss %.0f%%", p.LossRate*100)
		}
	}
	if pts[2].CompletionFraction > pts[0].CompletionFraction {
		t.Errorf("completion rose with loss: %.3f at 0%% vs %.3f at 20%%",
			pts[0].CompletionFraction, pts[2].CompletionFraction)
	}
}

// Two same-seed faulted runs are bit-identical: impairments draw from
// their own per-link PRNGs, so fault injection preserves determinism.
func TestFaultedRunDeterministic(t *testing.T) {
	d := short(t)
	cfg := Config{
		Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: 10,
		Duration: d, Seed: 11,
		LossRate: 0.1, DupProb: 0.02, LinkJitter: 2 * tvatime.Millisecond,
		RestartAt: d / 2,
	}
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
	if a.Telemetry.LinkDrops != b.Telemetry.LinkDrops {
		t.Fatalf("same seed, different link drops: %v vs %v", a.Telemetry.LinkDrops, b.Telemetry.LinkDrops)
	}
	if a.BottleneckDrops != b.BottleneckDrops {
		t.Fatalf("same seed, different bottleneck drops: %d vs %d", a.BottleneckDrops, b.BottleneckDrops)
	}
}

// A mid-run router crash: queued packets are flushed (attributed
// router-restart), soft state is lost, and transfers recover because
// capability secrets survive and hosts re-request what the cache
// forgot.
func TestRouterRestartRecovery(t *testing.T) {
	d := short(t)
	var restarts uint64
	DebugHosts = func(users []*host, dest *host, routers []*core.Router) {
		for _, r := range routers {
			restarts += r.Restarts()
		}
	}
	defer func() { DebugHosts = nil }()

	cfg := Config{
		Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: 10,
		Duration: d, Seed: 5, RestartAt: d / 2,
	}
	r := Run(cfg)
	if restarts != 1 {
		t.Fatalf("router restarts = %d, want 1", restarts)
	}
	// The flood keeps the bottleneck queue full, so the flush must have
	// caught packets.
	if got := r.Telemetry.LinkDrops.Get(telemetry.DropRouterRestart); got == 0 {
		t.Errorf("restart flushed no packets despite a flood-loaded queue")
	}
	rec, ok := r.TimeToRecover(cfg.RestartAt)
	if !ok {
		t.Fatal("no transfer completed after the restart: no recovery")
	}
	if rec > 5*tvatime.Second {
		t.Errorf("time to recover %v, want under 5s", rec)
	}
	// The drops-sum invariant holds with fault injection active: fault
	// losses are attributed separately from enqueue drops.
	if got, want := r.Telemetry.SchedDrops.Total(), r.BottleneckDrops; got != want {
		t.Errorf("SchedDrops.Total()=%d != BottleneckDrops=%d with faults active", got, want)
	}
}

// The renewal-loss fallback (§4.3 meets §3.8): every renewal packet is
// destroyed on the wire, so mid-transfer re-authorization can only
// succeed by falling back to a fresh request — which the shim does once
// the dead grant's budget is exhausted. Transfers complete and the
// routers see no demotion storm.
func TestRenewalLossFallsBackToFreshRequest(t *testing.T) {
	d := short(t)
	Debug = func(bottleneck *netsim.Iface) {
		bottleneck.SetImpairment(netsim.ImpairConfig{
			DropIf: func(pkt *packet.Packet) bool {
				return pkt.Hdr != nil && pkt.Hdr.Kind == packet.KindRenewal
			},
		})
	}
	var reacquires, renewals uint64
	DebugHosts = func(users []*host, dest *host, routers []*core.Router) {
		for _, u := range users {
			reacquires += u.tvaShim.Stats.Reacquires
			renewals += u.tvaShim.Stats.RenewalsSent
		}
	}
	defer func() { Debug, DebugHosts = nil, nil }()

	// A small grant forces renewal in the middle of every 20 KB
	// transfer; with renewals black-holed, each transfer must cross the
	// re-request fallback to finish.
	r := Run(Config{
		Scheme: SchemeTVA, Attack: AttackNone, NumUsers: 4,
		GrantKB: 8, Duration: d, Seed: 9,
	})
	// Every transfer with room to finish must finish; only window-edge
	// stragglers (started in the last seconds) may be cut off.
	margin := tvatime.Time(d - 5*tvatime.Second)
	for _, tr := range r.Transfers {
		if !tr.Completed && tr.Start < margin {
			t.Errorf("transfer started at %v never completed despite %v of runway", tr.Start, d)
		}
	}
	if renewals == 0 {
		t.Fatal("test exercised no renewals; shrink GrantKB")
	}
	if reacquires == 0 {
		t.Fatal("no reacquisitions: the fallback path never ran")
	}
	// No demotion storm: the sender stops using the dead grant before
	// routers demote at any scale. A handful of demotions (in-flight
	// stragglers) is fine; thousands is a storm.
	if got := r.Telemetry.Demotions.Total(); got > 100 {
		t.Errorf("demotions = %d, want few (no demotion storm)", got)
	}
}

// A run returns every pooled packet it acquired: what is still in
// flight or queued at the horizon goes back when the simulation is
// torn down, for every scheme, with and without faults, on both
// drivers.
func TestRunReturnsPoolToBaseline(t *testing.T) {
	baseline := packet.Live()
	for _, s := range []Scheme{SchemeInternet, SchemeSIFF, SchemePushback, SchemeTVA} {
		for _, faulty := range []bool{false, true} {
			cfg := Config{Scheme: s, Attack: AttackLegacyFlood, NumAttackers: 40,
				Duration: 3 * tvatime.Second, Seed: 5}
			if faulty {
				cfg.LossRate, cfg.DupProb, cfg.LinkJitter = 0.02, 0.05, 2*tvatime.Millisecond
				cfg.RestartAt = 1500 * tvatime.Millisecond
			}
			Run(cfg)
			if got := packet.Live(); got != baseline {
				t.Fatalf("%v faulty=%v: pool gauge %d after Run, want baseline %d", s, faulty, got, baseline)
			}
		}
	}
	RunStream(StreamConfig{Attackers: 20, Seed: 5})
	if got := packet.Live(); got != baseline {
		t.Fatalf("pool gauge %d after RunStream, want baseline %d", got, baseline)
	}
}
