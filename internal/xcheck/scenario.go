// Package xcheck cross-validates the two data planes: it runs one
// scenario spec on the discrete-event simulator (exp.RunStream) and on
// an in-process loopback overlay deployment (overlay.Topology),
// collects the shared metric series, drop attribution, queue-wait
// sketches, and trace spans from each, and scores the divergence
// against per-check tolerances declared in the scenario. The paper's
// evaluation rests on simulator results; this harness is the
// machine-checked evidence that the simulator's behaviour matches the
// deployable implementation (ROADMAP item 5), in the spirit of the
// simulated-vs-experimental DiffServ validation study.
package xcheck

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"tva/internal/metrics"
)

// Scenario is one cross-plane experiment spec. Durations are integer
// milliseconds so specs round-trip through JSON without float drift.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Users         int `json:"users"`
	MsgBytes      int `json:"msg_bytes"`
	MsgIntervalMS int `json:"msg_interval_ms"`

	Attackers     int   `json:"attackers"`
	AttackRateBps int64 `json:"attack_rate_bps"`
	AttackPktSize int   `json:"attack_pkt_size"`
	AttackStartMS int   `json:"attack_start_ms"`

	LinkBps int64 `json:"link_bps"`
	// LinkDelayMS applies to the simulator plane only: loopback UDP has
	// no configurable propagation delay. A known modeling gap — it
	// shifts time-to-first-grant, not queueing behaviour, and the
	// default is kept small so the gap stays inside tolerances.
	LinkDelayMS int `json:"link_delay_ms"`

	DurationMS int `json:"duration_ms"`
	// DrainMS is quiet time at the end of the run: senders stop at
	// Duration-Drain so in-flight traffic settles inside the window on
	// both planes.
	DrainMS int `json:"drain_ms"`

	RequestFraction float64 `json:"request_fraction"`
	GrantKB         uint16  `json:"grant_kb"`
	GrantTSec       uint8   `json:"grant_tsec"`

	Seed int64 `json:"seed"`

	// WaitFloorBucket collapses sketch buckets below this index (2^n
	// nanoseconds) into one "negligible wait" bucket before the
	// max-CDF-gap is computed. The default (18, ~262 µs) absorbs the
	// known modeling gap that an unloaded simulator queue reports
	// exactly zero wait while an unloaded overlay port reports
	// microseconds of scheduling noise; queueing that matters (service
	// times upward) lives above the floor on both planes.
	WaitFloorBucket int `json:"wait_floor_bucket"`

	// WaitShiftBuckets lets the wait comparison slide one plane's sketch
	// by up to this many power-of-two buckets before taking the CDF gap
	// (the minimum gap over all shifts is scored). Default 1. This
	// absorbs a known modeling gap: the overlay paces ports at wall-clock
	// wake-ups whose lateness stretches effective service time,
	// scaling saturated queue waits by a constant factor the sketch's
	// factor-2 buckets cannot distinguish from one bucket of shift. Shape
	// divergence (different distributions, not just a time scale) still
	// fails. Set to -1 to require exact bucket alignment.
	WaitShiftBuckets int `json:"wait_shift_buckets"`

	// Tolerances overrides or extends the default per-check bounds:
	// "delivered_fraction", "drop_rate", "demotion_rate" (absolute
	// deltas), "drop_mix" (total variation distance), "wait_cdf_gap"
	// (max CDF gap). Keys of the form "metric:<name>" additionally gate
	// that shared series' relative delta, which is otherwise
	// informational.
	Tolerances map[string]float64 `json:"tolerances,omitempty"`
}

// DefaultTolerances are the bounds used when a scenario does not
// declare its own. They encode the expected residual divergence of a
// wall-clock UDP deployment vs a discrete-event model: counts and
// fractions agree tightly, distribution shapes more loosely.
var DefaultTolerances = map[string]float64{
	"delivered_fraction": 0.10,
	"drop_rate":          0.10,
	"drop_mix":           0.25,
	"demotion_rate":      0.10,
	"wait_cdf_gap":       0.35,
}

func (s Scenario) withDefaults() Scenario {
	if s.Users == 0 {
		s.Users = 10
	}
	if s.MsgBytes == 0 {
		s.MsgBytes = 512
	}
	if s.MsgIntervalMS == 0 {
		s.MsgIntervalMS = 50
	}
	if s.AttackRateBps == 0 {
		s.AttackRateBps = 1_000_000
	}
	if s.AttackPktSize == 0 {
		s.AttackPktSize = 1000
	}
	if s.AttackStartMS == 0 {
		s.AttackStartMS = 500
	}
	if s.LinkBps == 0 {
		s.LinkBps = 10_000_000
	}
	if s.LinkDelayMS == 0 {
		s.LinkDelayMS = 2
	}
	if s.DurationMS == 0 {
		s.DurationMS = 3000
	}
	if s.DrainMS == 0 {
		s.DrainMS = 500
	}
	if s.RequestFraction == 0 {
		s.RequestFraction = 0.05
	}
	if s.GrantKB == 0 {
		// Large enough to outlive a scenario without renewal: the
		// overlay shim has no retransmission timers (a documented
		// modeling gap), so a mid-run renewal would diverge.
		s.GrantKB = 64
	}
	if s.GrantTSec == 0 {
		s.GrantTSec = 10
	}
	if s.WaitFloorBucket == 0 {
		s.WaitFloorBucket = 18
	}
	if s.WaitShiftBuckets == 0 {
		s.WaitShiftBuckets = 1
	}
	if s.WaitShiftBuckets < 0 {
		s.WaitShiftBuckets = 0
	}
	return s
}

// validate rejects a defaulted scenario that either plane would crash
// on or could not run. Each error names the offending JSON field.
func (s Scenario) validate() error {
	bad := func(field, rule string, got any) error {
		return fmt.Errorf("xcheck: scenario %q: %s must be %s, got %v", s.Name, field, rule, got)
	}
	switch {
	case s.Users < 0:
		return bad("users", ">= 0", s.Users)
	case s.Attackers < 0:
		return bad("attackers", ">= 0", s.Attackers)
	case s.MsgBytes <= 0:
		return bad("msg_bytes", "> 0", s.MsgBytes)
	case s.MsgIntervalMS <= 0:
		return bad("msg_interval_ms", "> 0", s.MsgIntervalMS)
	case s.AttackRateBps <= 0:
		return bad("attack_rate_bps", "> 0", s.AttackRateBps)
	case s.AttackPktSize <= 0:
		return bad("attack_pkt_size", "> 0", s.AttackPktSize)
	case s.LinkBps <= 0:
		return bad("link_bps", "> 0", s.LinkBps)
	case s.DurationMS <= 0:
		return bad("duration_ms", "> 0", s.DurationMS)
	case s.AttackStartMS < 0:
		return bad("attack_start_ms", ">= 0", s.AttackStartMS)
	case s.LinkDelayMS < 0:
		return bad("link_delay_ms", ">= 0", s.LinkDelayMS)
	case s.DrainMS >= s.DurationMS:
		return bad("drain_ms", fmt.Sprintf("shorter than duration_ms (%d)", s.DurationMS), s.DrainMS)
	case !(s.RequestFraction > 0 && s.RequestFraction <= 1):
		return bad("request_fraction", "in (0, 1]", s.RequestFraction)
	case s.WaitFloorBucket < 0 || s.WaitFloorBucket >= metrics.SketchBuckets:
		return bad("wait_floor_bucket", fmt.Sprintf("in [0, %d]", metrics.SketchBuckets-1), s.WaitFloorBucket)
	case s.attackInterval() < 1:
		return fmt.Errorf("xcheck: scenario %q: attack_pkt_size %d at attack_rate_bps %d gives an attacker send interval under 1 ns",
			s.Name, s.AttackPktSize, s.AttackRateBps)
	}
	return nil
}

// attackInterval is one attacker's packet spacing: attack_pkt_size
// bytes at attack_rate_bps. Both planes pace their floods by it.
func (s Scenario) attackInterval() time.Duration {
	return time.Duration(int64(s.AttackPktSize) * 8 * int64(time.Second) / s.AttackRateBps)
}

// tolerance resolves one check's bound: scenario override first, then
// the package default; checks without either are informational.
func (s Scenario) tolerance(check string) (float64, bool) {
	if v, ok := s.Tolerances[check]; ok {
		return v, true
	}
	v, ok := DefaultTolerances[check]
	return v, ok
}

// Builtins are the canonical CI scenarios: a legit-only baseline and a
// legacy flood at 4x the bottleneck capacity.
var Builtins = []Scenario{
	{
		Name:        "baseline",
		Description: "10 users streaming 512 B messages every 50 ms through capability shims; no attack. Both planes should deliver essentially everything with idle queues.",
		Users:       10,
		DurationMS:  2500,
		Seed:        42,
	},
	{
		Name:          "flood",
		Description:   "10 users under a 10-attacker legacy flood at 4 Mb/s each (40 Mb/s into a 10 Mb/s bottleneck). TVA must protect the capability-carrying flows on both planes while the bottleneck sheds legacy load.",
		Users:         10,
		Attackers:     10,
		AttackRateBps: 4_000_000,
		DurationMS:    3000,
		Seed:          42,
	},
}

// Builtin returns the named canonical scenario.
func Builtin(name string) (Scenario, bool) {
	for _, s := range Builtins {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// ParseScenario decodes one JSON scenario spec. It rejects a spec
// without a name, and one that fails validation once defaults are
// filled in. The result is the spec as written; RunScenario fills in
// the defaults.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("xcheck: parse: %w", err)
	}
	if s.Name == "" {
		return Scenario{}, errors.New("xcheck: scenario needs a name")
	}
	if err := s.withDefaults().validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenario reads one scenario spec from a JSON file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	s, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
