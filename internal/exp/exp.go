// Package exp reproduces the paper's simulation methodology (§5): the
// dumbbell topology of Fig. 7, the four schemes (TVA, SIFF, pushback,
// legacy Internet), the four attack workloads (legacy floods, request
// floods, authorized floods via a colluder, and imprecise
// authorization), and the two metrics reported in Figs. 8–11 (fraction
// of completed transfers and average time of completed transfers).
package exp

import (
	"fmt"
	"sort"

	"tva/internal/flowstats"
	"tva/internal/tvatime"
)

// Scheme selects the DoS defense under test.
type Scheme int

// Schemes compared in §5.
const (
	SchemeInternet Scheme = iota
	SchemeTVA
	SchemeSIFF
	SchemePushback
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeInternet:
		return "internet"
	case SchemeTVA:
		return "tva"
	case SchemeSIFF:
		return "siff"
	case SchemePushback:
		return "pushback"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Attack selects the attacker workload.
type Attack int

// Attacks of §5.1–§5.4.
const (
	AttackNone Attack = iota
	AttackLegacyFlood
	AttackRequestFlood
	AttackAuthorizedFlood
	AttackImpreciseAuth
)

// String implements fmt.Stringer.
func (a Attack) String() string {
	switch a {
	case AttackNone:
		return "none"
	case AttackLegacyFlood:
		return "legacy-flood"
	case AttackRequestFlood:
		return "request-flood"
	case AttackAuthorizedFlood:
		return "authorized-flood"
	case AttackImpreciseAuth:
		return "imprecise-auth"
	}
	return fmt.Sprintf("attack(%d)", int(a))
}

// Deployment selects which routers run the scheme's processing —
// the paper's incremental deployment story (§8): boxes are placed at
// points of congestion first, and benefit accrues per box.
type Deployment int

// Deployment levels.
const (
	// DeployFull upgrades both routers (the default).
	DeployFull Deployment = iota
	// DeployBottleneckOnly upgrades only the router ahead of the
	// congested link ("preceding a step-down in capacity", §8).
	DeployBottleneckOnly
	// DeployNone leaves both routers legacy (any scheme degenerates
	// to the Internet baseline).
	DeployNone
)

// String implements fmt.Stringer.
func (d Deployment) String() string {
	switch d {
	case DeployFull:
		return "full"
	case DeployBottleneckOnly:
		return "bottleneck-only"
	case DeployNone:
		return "none"
	}
	return fmt.Sprintf("deploy(%d)", int(d))
}

// Config is one simulation run's parameters. The zero value plus a
// Scheme/Attack/NumAttackers selects the paper's settings.
type Config struct {
	Scheme Scheme
	Attack Attack

	// Deployment controls which routers are upgraded (§8).
	Deployment Deployment

	NumUsers     int // legitimate users (default 10)
	NumAttackers int

	BottleneckBps int64            // default 10 Mb/s
	AccessBps     int64            // default 10 Mb/s
	LinkDelay     tvatime.Duration // default 10 ms (60 ms RTT end to end)

	AttackRateBps int64 // per attacker (default 1 Mb/s)
	AttackPktSize int   // attack payload bytes (default 1000)

	Duration    tvatime.Duration // simulated time (default 60s)
	AttackStart tvatime.Duration // when flooding begins (default 1s)

	// AttackGroups splits attackers into sequential groups for the
	// imprecise-authorization attack (Fig. 11: 1 = all at once,
	// 10 = ten at a time), groupInterval apart.
	AttackGroups int

	// RequestFraction is TVA's request-channel share (the simulations
	// stress the design at 1%, §5).
	RequestFraction float64

	// GrantKB/GrantTSec are the destination server policy's default
	// authorization (default 32 KB / 10 s, §5.4).
	GrantKB   uint16
	GrantTSec uint8

	// Fault injection: all zeros model a perfect network. LossRate and
	// DupProb are per-packet probabilities on the bottleneck link (both
	// directions, independent per-direction seeded PRNGs); LinkJitter
	// adds a uniform [0, LinkJitter) per-packet extra delay.
	LossRate   float64
	DupProb    float64
	LinkJitter tvatime.Duration

	// RestartAt, if positive, crashes and restarts the left (user-side)
	// router at that virtual time: its output queues are flushed and,
	// under TVA, its flow cache and path-identifier history are lost
	// while capability secrets survive (§3.8).
	RestartAt tvatime.Duration

	// OutageStart/OutageDuration, if the duration is positive, take the
	// bottleneck link down (both directions) for the window; queued and
	// in-flight packets are cut.
	OutageStart    tvatime.Duration
	OutageDuration tvatime.Duration

	// MetricsInterval, if positive, ticks the metrics registry and
	// health detector (Result.Telemetry.Metrics and .Health) every
	// interval of virtual time, sampling the bottleneck's gauges and
	// cumulative drop counters. Sampling is off the forwarding path
	// (its own simulator events), so zero vs non-zero does not change
	// packet-level outcomes.
	MetricsInterval tvatime.Duration

	// SpanCapacity, if positive, attaches a span flight recorder
	// (internal/trace) of that many retained spans to the whole
	// simulation: every injected packet gets a trace ID and every
	// lifecycle edge — send, verdict, enqueue, dequeue, transmit, drop,
	// demotion, delivery — is recorded (Result.Telemetry.Spans).
	// Emission is allocation-free, but tracing every edge costs a few
	// stores per packet per hop.
	SpanCapacity int

	// DropStormPkts, if positive, arms the drop-storm detector: when
	// the forward bottleneck's enqueue drops grow by at least this many
	// packets within one detection window (MetricsInterval, or 100 ms
	// if metrics are off), Telemetry.DropStorm is latched — tvasim uses
	// it to dump the flight recorder automatically.
	DropStormPkts int

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NumUsers == 0 {
		c.NumUsers = 10
	}
	if c.BottleneckBps == 0 {
		c.BottleneckBps = 10_000_000
	}
	if c.AccessBps == 0 {
		c.AccessBps = 10_000_000
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 10 * tvatime.Millisecond
	}
	if c.AttackRateBps == 0 {
		c.AttackRateBps = 1_000_000
	}
	if c.AttackPktSize == 0 {
		c.AttackPktSize = 1000
	}
	if c.Duration == 0 {
		c.Duration = 60 * tvatime.Second
	}
	if c.AttackStart == 0 {
		c.AttackStart = tvatime.Second
	}
	if c.AttackGroups == 0 {
		c.AttackGroups = 1
	}
	if c.RequestFraction == 0 {
		c.RequestFraction = 0.01
	}
	if c.GrantKB == 0 {
		c.GrantKB = 32
	}
	if c.GrantTSec == 0 {
		c.GrantTSec = 10
	}
	return c
}

// The §5 workload's fixed settings.
const (
	fileKB = 20 // each user's transfer size
	// groupInterval spaces Fig. 11's attacker groups.
	groupInterval = 3 * tvatime.Second
)

// groupDuration is how long each attacker floods: 3 s for Fig. 11's
// imprecise-authorization groups, to the end of the run otherwise.
func (c Config) groupDuration() tvatime.Duration {
	if c.Attack == AttackImpreciseAuth {
		return 3 * tvatime.Second
	}
	return c.Duration
}

// TransferRecord is one user file transfer's outcome.
type TransferRecord struct {
	User      int
	Start     tvatime.Time
	End       tvatime.Time
	Completed bool
}

// Duration returns the transfer's elapsed time.
func (t TransferRecord) Duration() tvatime.Duration { return t.End.Sub(t.Start) }

// Result aggregates one run.
type Result struct {
	Cfg       Config
	Transfers []TransferRecord

	// BottleneckUtilization is the forward bottleneck's share of
	// capacity actually used.
	BottleneckUtilization float64
	// BottleneckDrops counts forward bottleneck enqueue drops.
	BottleneckDrops uint64

	// FairnessJain and MaxMinRatio summarize how evenly the legitimate
	// users shared goodput over the whole run: Jain's index
	// (Σx)²/(n·Σx²) of per-user delivered bytes, and the best-served /
	// worst-served ratio (worst clamped to 1 byte).
	FairnessJain float64
	MaxMinRatio  float64

	// Flows is the bottleneck's end-of-run heavy-hitter table, sorted
	// by bytes descending (per-sender bytes, packets, drops and
	// demotions at the congested point; Err bounds the space-saving
	// overcount).
	Flows []flowstats.Sample

	// Telemetry carries the run's observability output: per-reason
	// drop counters, demotion causes, delay sketches, and (when
	// configured) the gauge time series and packet trace.
	Telemetry RunTelemetry
}

// CompletionFraction is the fraction of decided transfers that
// completed (the paper's first metric).
func (r *Result) CompletionFraction() float64 {
	if len(r.Transfers) == 0 {
		return 0
	}
	done := 0
	for _, t := range r.Transfers {
		if t.Completed {
			done++
		}
	}
	return float64(done) / float64(len(r.Transfers))
}

// AvgTransferTime is the mean duration of completed transfers in
// seconds (the paper's second metric). It returns 0 when nothing
// completed.
func (r *Result) AvgTransferTime() float64 {
	var sum float64
	n := 0
	for _, t := range r.Transfers {
		if t.Completed {
			sum += t.Duration().Seconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Series returns (start-time, duration) points of completed transfers
// ordered by start time — the Fig. 11 time series.
func (r *Result) Series() (startSec, durSec []float64) {
	recs := append([]TransferRecord(nil), r.Transfers...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	for _, t := range recs {
		if t.Completed {
			startSec = append(startSec, t.Start.SecondsF())
			durSec = append(durSec, t.Duration().Seconds())
		}
	}
	return startSec, durSec
}
