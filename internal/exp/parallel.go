// Parallel sweep engine: independent simulation runs fanned across
// worker goroutines. Every Run constructs its own simulator whose RNG
// is seeded solely from its Config, so a sweep's results are a pure
// function of its configurations — identical no matter how many
// workers execute them or in what order they finish.
package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunMany executes each configuration and returns results in input
// order. workers <= 0 uses GOMAXPROCS; the worker count never affects
// the results, only the wall-clock time.
func RunMany(cfgs []Config, workers int) []*Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]*Result, len(cfgs))
	if workers <= 1 {
		for i, cfg := range cfgs {
			results[i] = Run(cfg)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				results[i] = Run(cfgs[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// SweepParallel is Sweep fanned across workers; it returns the same
// points as Sweep(base, counts) in the same order.
func SweepParallel(base Config, counts []int, workers int) []SweepPoint {
	cfgs := make([]Config, len(counts))
	for i, n := range counts {
		cfgs[i] = base
		cfgs[i].NumAttackers = n
	}
	results := RunMany(cfgs, workers)
	points := make([]SweepPoint, len(results))
	for i, res := range results {
		points[i] = SweepPoint{
			Attackers:          counts[i],
			CompletionFraction: res.CompletionFraction(),
			AvgTransferTime:    res.AvgTransferTime(),
			FairnessJain:       res.FairnessJain,
			MaxMinRatio:        res.MaxMinRatio,
		}
	}
	return points
}

// SweepSpec enumerates a (scheme, attack, attacker-count, seed) grid
// over a base configuration. Empty dimensions keep the base's value.
type SweepSpec struct {
	Base      Config
	Schemes   []Scheme
	Attacks   []Attack
	Attackers []int
	Seeds     []int64
}

// Expand returns the grid's configurations in row-major order:
// scheme, then attack, then attacker count, then seed.
func (s SweepSpec) Expand() []Config {
	schemes := s.Schemes
	if len(schemes) == 0 {
		schemes = []Scheme{s.Base.Scheme}
	}
	attacks := s.Attacks
	if len(attacks) == 0 {
		attacks = []Attack{s.Base.Attack}
	}
	attackers := s.Attackers
	if len(attackers) == 0 {
		attackers = []int{s.Base.NumAttackers}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Base.Seed}
	}
	cfgs := make([]Config, 0, len(schemes)*len(attacks)*len(attackers)*len(seeds))
	for _, sc := range schemes {
		for _, at := range attacks {
			for _, n := range attackers {
				for _, seed := range seeds {
					cfg := s.Base
					cfg.Scheme = sc
					cfg.Attack = at
					cfg.NumAttackers = n
					cfg.Seed = seed
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

// Run executes the spec's grid across workers, returning results in
// Expand order.
func (s SweepSpec) Run(workers int) []*Result {
	return RunMany(s.Expand(), workers)
}
