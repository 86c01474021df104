// Divergence scoring: difference two PlaneResults check by check,
// gate each against the scenario's tolerance, and report shared-series
// relative deltas (informational unless a "metric:<name>" tolerance
// is declared).
package xcheck

import (
	"math"
	"sort"

	"tva/internal/metrics"
)

// minMixMass is the minimum drop count each plane must show before the
// drop-reason-mix TVD is meaningful: normalizing a handful of drops
// into a distribution amplifies noise into spurious distance.
const minMixMass = 20

// Check is one gated (or informational) comparison.
type Check struct {
	Name      string  `json:"name"`
	Sim       float64 `json:"sim"`
	Real      float64 `json:"real"`
	Delta     float64 `json:"delta"`
	Tolerance float64 `json:"tolerance"`
	Gated     bool    `json:"gated"`
	Pass      bool    `json:"pass"`
	Note      string  `json:"note,omitempty"`
}

// Comparison is one scenario's full divergence report.
type Comparison struct {
	Scenario Scenario     `json:"scenario"`
	Sim      *PlaneResult `json:"sim"`
	Real     *PlaneResult `json:"real"`
	Checks   []Check      `json:"checks"`
	Pass     bool         `json:"pass"`
}

// Compare scores the two plane results against the scenario's
// tolerances.
func Compare(sc Scenario, sim, real *PlaneResult) *Comparison {
	c := &Comparison{Scenario: sc, Sim: sim, Real: real, Pass: true}

	add := func(name string, simV, realV, delta float64, note string) {
		tol, gated := sc.tolerance(name)
		chk := Check{
			Name: name, Sim: simV, Real: realV, Delta: delta,
			Tolerance: tol, Gated: gated, Pass: !gated || delta <= tol,
			Note: note,
		}
		c.Checks = append(c.Checks, chk)
		if !chk.Pass {
			c.Pass = false
		}
	}

	df1, df2 := sim.DeliveredFraction(), real.DeliveredFraction()
	add("delivered_fraction", df1, df2, math.Abs(df1-df2), "")

	dr1, dr2 := sim.DropRate(), real.DropRate()
	add("drop_rate", dr1, dr2, math.Abs(dr1-dr2), "")

	tvd, note := dropMixTVD(sim, real)
	add("drop_mix", float64(sim.DropsTotal), float64(real.DropsTotal), tvd, note)

	dm1, dm2 := sim.DemotionRate(), real.DemotionRate()
	add("demotion_rate", dm1, dm2, math.Abs(dm1-dm2), "")

	gap := waitCDFGap(sim.WaitCounts, real.WaitCounts, sc.WaitFloorBucket, sc.WaitShiftBuckets)
	add("wait_cdf_gap", float64(sketchTotal(sim.WaitCounts)), float64(sketchTotal(real.WaitCounts)), gap,
		"buckets below the wait floor are collapsed and the sketches aligned within the shift allowance before the gap is taken")

	// Shared-series relative deltas, sorted by name for stable output.
	ids := map[string]bool{}
	for id := range sim.SharedMetrics {
		ids[id] = true
	}
	for id := range real.SharedMetrics {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		a, b := sim.SharedMetrics[id], real.SharedMetrics[id]
		add("metric:"+id, a, b, relDelta(a, b), "")
	}
	return c
}

// relDelta is |a-b| / max(|a|, |b|), 0 when both are ~0.
func relDelta(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1e-9 {
		return 0
	}
	return math.Abs(a-b) / m
}

// dropMixTVD is the total variation distance between the two planes'
// normalized drop-reason distributions.
func dropMixTVD(sim, real *PlaneResult) (float64, string) {
	st, rt := sim.DropsTotal, real.DropsTotal
	if st < minMixMass || rt < minMixMass {
		if st >= minMixMass || rt >= minMixMass {
			// One plane drops substantially, the other barely: that
			// magnitude gap belongs to drop_rate; the mix is undefined.
			return 0, "insufficient drop mass on one plane; magnitude gated by drop_rate"
		}
		return 0, "both planes below minimum drop mass; mix not evaluated"
	}
	keys := map[string]bool{}
	for k := range sim.DropReasons {
		keys[k] = true
	}
	for k := range real.DropReasons {
		keys[k] = true
	}
	var tvd float64
	for k := range keys {
		p := float64(sim.DropReasons[k]) / float64(st)
		q := float64(real.DropReasons[k]) / float64(rt)
		tvd += math.Abs(p - q)
	}
	return tvd / 2, ""
}

func sketchTotal(counts [metrics.SketchBuckets]uint64) uint64 {
	var t uint64
	for _, n := range counts {
		t += n
	}
	return t
}

// waitCDFGap is the Kolmogorov–Smirnov-style max CDF gap between two
// wait sketches, after collapsing every bucket below floor into one
// "negligible wait" bucket and aligning the sketches within the shift
// allowance (minimum gap over shifting b by up to ±shift buckets). The
// collapse encodes a known modeling gap: an unloaded simulator queue
// waits exactly zero virtual time where an unloaded overlay port waits
// real microseconds; both are "no queueing" for the paper's purposes.
// The shift allowance encodes a second gap: wall-clock pacing (a port
// sends at real wake-ups, never exactly when its emulated link frees)
// stretches the overlay's effective service time by a constant factor,
// which the sketch's power-of-two buckets render as a rigid shift —
// indistinguishable from a timing calibration, unlike a genuine shape
// divergence, which no rigid shift can hide.
func waitCDFGap(a, b [metrics.SketchBuckets]uint64, floor, shift int) float64 {
	ta, tb := sketchTotal(a), sketchTotal(b)
	if ta == 0 && tb == 0 {
		return 0
	}
	if ta == 0 || tb == 0 {
		return 1
	}
	if shift < 0 {
		shift = 0
	}
	best := math.Inf(1)
	for k := -shift; k <= shift; k++ {
		if g := rawCDFGap(a, shiftCounts(b, k), floor); g < best {
			best = g
		}
	}
	return best
}

// shiftCounts moves every bucket of c by k positions (positive k =
// toward larger waits), clamping mass that falls off either end into
// the edge buckets so totals are preserved.
func shiftCounts(c [metrics.SketchBuckets]uint64, k int) [metrics.SketchBuckets]uint64 {
	if k == 0 {
		return c
	}
	var out [metrics.SketchBuckets]uint64
	for i, n := range c {
		j := i + k
		if j < 0 {
			j = 0
		}
		if j >= metrics.SketchBuckets {
			j = metrics.SketchBuckets - 1
		}
		out[j] += n
	}
	return out
}

func rawCDFGap(a, b [metrics.SketchBuckets]uint64, floor int) float64 {
	ta, tb := sketchTotal(a), sketchTotal(b)
	if floor < 0 {
		floor = 0
	}
	if floor >= metrics.SketchBuckets {
		floor = metrics.SketchBuckets - 1
	}
	var gap, ca, cb float64
	for i := 0; i < metrics.SketchBuckets; i++ {
		ca += float64(a[i]) / float64(ta)
		cb += float64(b[i]) / float64(tb)
		if i < floor {
			continue // inside the collapsed negligible-wait bucket
		}
		if d := math.Abs(ca - cb); d > gap {
			gap = d
		}
	}
	return gap
}
