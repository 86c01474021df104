// Simulator-plane runner: maps the scenario onto exp.RunStream and
// extracts the aligned PlaneResult.
package xcheck

import (
	"fmt"

	"tva/internal/exp"
	"tva/internal/tvatime"
)

// simSpanCapacity retains every span of a CI-sized scenario.
const simSpanCapacity = 1 << 17

func runSim(sc Scenario) (*PlaneResult, error) {
	res := exp.RunStream(exp.StreamConfig{
		Config: exp.Config{
			NumUsers:        sc.Users,
			NumAttackers:    sc.Attackers,
			AttackRateBps:   sc.AttackRateBps,
			AttackPktSize:   sc.AttackPktSize,
			AttackStart:     tvatime.Duration(sc.AttackStartMS) * tvatime.Millisecond,
			BottleneckBps:   sc.LinkBps,
			AccessBps:       sc.LinkBps,
			LinkDelay:       tvatime.Duration(sc.LinkDelayMS) * tvatime.Millisecond,
			Duration:        tvatime.Duration(sc.DurationMS) * tvatime.Millisecond,
			RequestFraction: sc.RequestFraction,
			GrantKB:         sc.GrantKB,
			GrantTSec:       sc.GrantTSec,
			MetricsInterval: 100 * tvatime.Millisecond,
			SpanCapacity:    simSpanCapacity,
			Seed:            sc.Seed,
		},
		MsgBytes:    sc.MsgBytes,
		MsgInterval: tvatime.Duration(sc.MsgIntervalMS) * tvatime.Millisecond,
		Drain:       tvatime.Duration(sc.DrainMS) * tvatime.Millisecond,
	})

	out := &PlaneResult{
		Plane:           "sim",
		LegitSent:       res.LegitSent,
		LegitDelivered:  res.LegitDelivered,
		AttackSent:      res.AttackSent,
		AttackDelivered: res.AttackDelivered,
		DropsTotal:      res.BottleneckDrops,
		DropReasons:     dropReasonMap(res.Telemetry.SchedDrops),
		DemotionsTotal:  res.Telemetry.Demotions.Total(),
		WaitCounts:      res.Telemetry.QueueDelay.Counts(),
	}
	for _, f := range res.PerFlow {
		out.PerFlow = append(out.PerFlow, FlowCount{
			Addr: f.Addr.String(), Sent: f.Sent, Delivered: f.Delivered,
		})
	}
	if res.Telemetry.Metrics == nil {
		return nil, fmt.Errorf("xcheck: sim run produced no metrics registry")
	}
	shared, err := sharedMetrics(res.Telemetry.Metrics)
	if err != nil {
		return nil, fmt.Errorf("xcheck: sim scrape: %w", err)
	}
	out.SharedMetrics = shared
	if rec := res.Telemetry.Spans; rec != nil {
		out.Hops = hopWaits(rec.Snapshot(), rec.HopName, uint32(exp.DestAddr))
	}
	return out, nil
}
