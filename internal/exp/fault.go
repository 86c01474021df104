// Fault injection and recovery wiring (DESIGN.md §10): bottleneck
// impairments, scheduled outages, and router crash/restart, plus the
// recovery metric (TimeToRecover) the failure experiments report.
// Everything here is driven by Config knobs and derives its
// randomness from Config.Seed, so faulted runs are bit-identical per
// seed like every other run.
package exp

import (
	"tva/internal/netsim"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// Per-direction salts for the bottleneck impairment PRNGs: forward and
// reverse must fault independently, and neither may share a stream
// with the simulator's own RNG.
const (
	saltForward = 0x1f3a
	saltReverse = 0x2b7c
)

// impairSeed derives a link-direction PRNG seed from the run seed.
func impairSeed(runSeed int64, salt int64) int64 {
	return runSeed*0x5851f42d4c957f2d + salt
}

// applyFaults attaches the configured impairments and schedules the
// outage window and the router restart. lr/rl are the bottleneck's
// forward and reverse directions; left is the user-side router node
// the restart applies to.
func (b *builder) applyFaults(lr, rl *netsim.Iface, left *netsim.Node) {
	cfg := b.cfg
	if cfg.LossRate > 0 || cfg.DupProb > 0 || cfg.LinkJitter > 0 {
		lr.SetImpairment(netsim.ImpairConfig{
			Seed:     impairSeed(cfg.Seed, saltForward),
			LossProb: cfg.LossRate,
			DupProb:  cfg.DupProb,
			Jitter:   cfg.LinkJitter,
		})
		rl.SetImpairment(netsim.ImpairConfig{
			Seed:     impairSeed(cfg.Seed, saltReverse),
			LossProb: cfg.LossRate,
			DupProb:  cfg.DupProb,
			Jitter:   cfg.LinkJitter,
		})
	}
	if cfg.OutageDuration > 0 {
		lr.ScheduleOutage(tvatime.Time(cfg.OutageStart), cfg.OutageDuration)
		rl.ScheduleOutage(tvatime.Time(cfg.OutageStart), cfg.OutageDuration)
	}
	if cfg.RestartAt > 0 {
		b.sim.At(tvatime.Time(cfg.RestartAt), func() { b.restartLeft(left) })
	}
}

// restartLeft models the left router crashing and rebooting: every
// output queue it owns is flushed (reason router-restart) and, under
// TVA, the router's soft state — flow cache, path-identifier history —
// is lost while its capability secrets survive (§3.8). Other schemes
// keep their router state (pushback's rate-limiters and SIFF's secrets
// are small enough to model as persistent); the queue loss alone is
// the dominant transient.
func (b *builder) restartLeft(left *netsim.Node) {
	for _, ifc := range left.Ifaces() {
		ifc.Flush(telemetry.DropRouterRestart)
	}
	if len(b.tvaRouters) > 0 {
		b.tvaRouters[0].Restart()
	}
}

// TimeToRecover reports the delay from the event at `at` to the first
// transfer completion at or after it — the recovery experiments'
// headline metric. ok is false when nothing completed after the event.
func (r *Result) TimeToRecover(at tvatime.Duration) (tvatime.Duration, bool) {
	t := tvatime.Time(at)
	best := tvatime.Time(0)
	found := false
	for _, tr := range r.Transfers {
		if !tr.Completed || tr.End < t {
			continue
		}
		if !found || tr.End < best {
			best = tr.End
			found = true
		}
	}
	if !found {
		return 0, false
	}
	return best.Sub(t), true
}
