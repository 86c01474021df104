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
