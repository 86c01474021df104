package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tva/internal/exp"
	"tva/internal/tvatime"
)

// sim_fig8: the other substrate. exp.Run on the paper's Fig. 8 setting
// (legacy flood, 100 attackers at 1 Mb/s, 10 users, 10 Mb/s
// bottleneck) once per scheme per round, sequentially on one thread.
// A round is one slice; every round uses its own seed derived from
// the run's seed, so a run's simulated statistics are a pure function
// of its seed and of how many rounds fit.
const (
	simAttackers = 100
	// Simulated seconds per run: long enough that the flood's steady
	// state dominates, short enough that a round of four schemes is
	// about a second of host time and ten rounds fit a run.
	simDuration  = 15 * tvatime.Second
	simWarmup    = 2 * tvatime.Second
	simMinRounds = 10
)

// simSchemes is the order the per-scheme metrics are named in.
var simSchemes = []exp.Scheme{exp.SchemeInternet, exp.SchemeSIFF, exp.SchemePushback, exp.SchemeTVA}

func fig8Config(s exp.Scheme, seed int64, dur tvatime.Duration) exp.Config {
	return exp.Config{Scheme: s, Attack: exp.AttackLegacyFlood, NumAttackers: simAttackers,
		Duration: dur, Seed: seed}
}

// simStats is the part of a Result that must repeat exactly for a
// seed. transfers counts every attempt, as the paper's fraction of
// completed transfers does; failed only those the network defeated
// (given up by TCP), not the ones still in progress when the
// simulated window closed.
type simStats struct {
	transfers, completed, failed int
	drops, sent                  uint64
	avgTime                      float64
}

func statsOf(r *exp.Result) simStats {
	s := simStats{transfers: len(r.Transfers), drops: r.BottleneckDrops,
		sent: r.Telemetry.QueueDelay.Count(), avgTime: r.AvgTransferTime()}
	for _, t := range r.Transfers {
		switch {
		case t.Completed:
			s.completed++
		case t.End < tvatime.Time(r.Cfg.Duration):
			s.failed++
		}
	}
	return s
}

// offered is the packets offered to the forward bottleneck.
func (s simStats) offered() uint64 { return s.sent + s.drops }

// simInputs is the seed-derived plan: one simulator seed per round.
type simInputs struct {
	roundSeeds []int64
}

// setupSimFig8 derives the round seeds and runs every scheme once on
// a short horizon so code and allocator are warm before timing.
func setupSimFig8(seed int64) (*simInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &simInputs{roundSeeds: make([]int64, 4096)}
	for i := range in.roundSeeds {
		in.roundSeeds[i] = rng.Int63()
	}
	for _, s := range simSchemes {
		if r := exp.Run(fig8Config(s, in.roundSeeds[0], simWarmup)); len(r.Transfers) == 0 {
			return nil, fmt.Errorf("warm-up run of %v decided no transfer", s)
		}
	}
	return in, nil
}

func runSimFig8(c runCfg, rep *report) (*spanRing, error) {
	lc := startLeakCheck()
	in, setups, err := medianSetup(setupRepeats, func() (*simInputs, error) { return setupSimFig8(c.seed) },
		func(*simInputs) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setups
	var ring *spanRing
	if c.trace {
		ring = newSpanRing(traceRingSpans, spanNames...)
	}
	runtime.GC()
	mem0 := markMem()
	total := make([]simStats, len(simSchemes))
	hostNs := make([]int64, len(simSchemes))
	var runUs []float64
	var offered uint64
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	rounds := 0
	for ; rounds < len(in.roundSeeds) && (time.Now().Before(deadline) || rounds < simMinRounds); rounds++ {
		cpu0, t0 := procCPU(), nanotime()
		var roundPkts uint64
		var tva simStats
		for i, s := range simSchemes {
			var h int32
			start := nanotime()
			if ring != nil {
				h = ring.begin(spSimRun, -1, int64(rounds*len(simSchemes)+i), start)
			}
			st := statsOf(exp.Run(fig8Config(s, in.roundSeeds[rounds], simDuration)))
			end := nanotime()
			if ring != nil {
				ring.end(h, end)
			}
			runUs = append(runUs, float64(end-start)/1e3)
			hostNs[i] += end - start
			roundPkts += st.offered()
			total[i].transfers += st.transfers
			total[i].completed += st.completed
			total[i].drops += st.drops
			total[i].sent += st.sent
			if s == exp.SchemeTVA {
				tva = st
			}
		}
		wall, cpu := nanotime()-t0, procCPU()-cpu0
		offered += roundPkts
		rep.add("kpps", float64(roundPkts)/float64(wall)*1e6)
		rep.add("cpu_us_per_pkt", float64(cpu)/1e3/float64(roundPkts))
		rep.add("goodput_frac", float64(tva.completed)/float64(tva.transfers))
		rep.attempted += int64(tva.transfers)
		rep.failed += int64(tva.failed)
	}
	// One value per round like the other metrics: the median host time
	// of the round's four runs.
	for r := 0; r < rounds; r++ {
		rep.add("lat_p50_us", median(runUs[r*len(simSchemes):(r+1)*len(simSchemes)]))
	}
	mem1 := markMem()

	// Same seed, same statistics: a run is a pure function of its
	// Config.
	again := fig8Config(exp.SchemeTVA, in.roundSeeds[0], simDuration)
	if a, b := statsOf(exp.Run(again)), statsOf(exp.Run(again)); a != b {
		rep.violate("two tva runs of seed %d differ: %+v vs %+v", again.Seed, a, b)
	}
	frac := func(i int) float64 { return float64(total[i].completed) / float64(total[i].transfers) }
	internet, tva := frac(0), frac(len(simSchemes)-1)
	if tva <= internet {
		rep.violate("tva completes %.3f of transfers under flood, the undefended internet %.3f", tva, internet)
	}
	// The simulator abandons the packets still in flight when a run
	// ends, so the pool gauge is recorded but not required to return.
	poolDelta := lc.done(rep, false)

	for i, s := range simSchemes {
		rep.layer["exp.ns_per_pkt."+s.String()] = float64(hostNs[i]) / float64(total[i].offered())
		rep.layer["exp.completion_frac."+s.String()] = frac(i)
		rep.layer["netsim.bottleneck_drops."+s.String()] = float64(total[i].drops)
	}
	rep.layer["packet.pool_live_delta"] = float64(poolDelta)
	rep.layer["bench.allocs_per_pkt"] = float64(mem1.mallocs-mem0.mallocs) / float64(offered)
	rep.layer["bench.gc_pause_ms"] = float64(mem1.pauseNs-mem0.pauseNs) / 1e6
	rep.detail["sim_rounds"] = rounds
	if c.trace {
		rep.layer["exp.sweep_speedup"] = sweepSpeedup(in)
	}
	return ring, nil
}

// sweepSpeedup runs one round's four configurations through
// exp.RunMany with one worker and with one per CPU: what a researcher
// sweeping a figure gains from the parallel engine on this machine.
func sweepSpeedup(in *simInputs) float64 {
	cfgs := make([]exp.Config, 0, 2*len(simSchemes))
	for r := 0; r < 2; r++ {
		for _, s := range simSchemes {
			cfgs = append(cfgs, fig8Config(s, in.roundSeeds[r], simDuration))
		}
	}
	t0 := time.Now()
	exp.RunMany(cfgs, 1)
	seq := time.Since(t0)
	t0 = time.Now()
	exp.RunMany(cfgs, runtime.NumCPU())
	return seq.Seconds() / time.Since(t0).Seconds()
}
