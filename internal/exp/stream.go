// The stream workload for cross-plane validation (internal/xcheck).
// Run reproduces the paper's file-transfer methodology; RunStream runs
// the workload the loopback overlay deployment can also run exactly,
// on Run's dumbbell: each user streams fixed-size raw messages through
// its capability shim to a granting destination while legacy attackers
// flood, and the result is structured counts — messages sent and
// delivered per flow, drops, demotions, queue-wait sketch — rather
// than transfer records. Keeping the workload identical on both planes
// is what makes their metric series comparable.
package exp

import (
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// StreamConfig parameterizes one stream run: Config's dumbbell and
// attackers plus the stream's message pace. RunStream fixes Scheme to
// TVA and Attack to the legacy flood (§5.1), and sends messages, not
// the 20 KB file transfers, with no Fig. 11 group schedule: its
// attackers flood from AttackStart until the drain. Config's defaults
// apply; the overlay runner gives the same values to both planes.
type StreamConfig struct {
	Config

	MsgBytes    int              // raw payload per message, > 0
	MsgInterval tvatime.Duration // per-user send spacing, > 0
	// Drain is quiet time at the end: users and attackers stop Drain
	// before Duration so in-flight traffic settles inside the window.
	Drain tvatime.Duration
}

// FlowCount is one sender's message tally.
type FlowCount struct {
	Addr      packet.Addr
	Sent      uint64
	Delivered uint64
}

// StreamResult is one stream run's structured outcome.
type StreamResult struct {
	Cfg StreamConfig

	// LegitSent/LegitDelivered count full-size user messages injected
	// and arriving at the destination (capability knocks excluded).
	LegitSent      uint64
	LegitDelivered uint64
	// AttackSent/AttackDelivered count attacker flood packets.
	AttackSent      uint64
	AttackDelivered uint64

	// PerFlow is indexed by user; PerFlow[i].Addr == UserAddr(i).
	PerFlow []FlowCount

	BottleneckUtilization float64
	BottleneckDrops       uint64

	Telemetry RunTelemetry
}

// DeliveredFraction is delivered/sent for legitimate messages (1 when
// nothing was sent).
func (r *StreamResult) DeliveredFraction() float64 {
	if r.LegitSent == 0 {
		return 1
	}
	return float64(r.LegitDelivered) / float64(r.LegitSent)
}

// RunStream executes one stream scenario on the simulator plane. It
// panics unless MsgBytes and MsgInterval are positive.
func RunStream(scfg StreamConfig) *StreamResult {
	if scfg.MsgBytes <= 0 || scfg.MsgInterval <= 0 {
		panic("exp: RunStream needs a positive MsgBytes and MsgInterval")
	}
	scfg.Scheme, scfg.Attack = SchemeTVA, AttackLegacyFlood
	scfg.Config = scfg.Config.withDefaults()
	cfg := scfg.Config
	b := newBuilder(cfg)

	// Destination: unlike Run's it never blacklists raw senders — the
	// overlay host has no misbehaviour detector, and the planes must
	// apply identical policy. It counts full-size deliveries instead.
	dest, _ := b.newDest()
	res := &StreamResult{Cfg: scfg, PerFlow: make([]FlowCount, cfg.NumUsers)}
	userIdx := make(map[packet.Addr]int, cfg.NumUsers)
	for i := range res.PerFlow {
		res.PerFlow[i].Addr = UserAddr(i)
		userIdx[UserAddr(i)] = i
	}
	dest.onRaw = func(src packet.Addr, size int, demoted bool) {
		if i, ok := userIdx[src]; ok {
			if size >= packet.OuterHdrLen+scfg.MsgBytes {
				res.PerFlow[i].Delivered++
				res.LegitDelivered++
			}
			return
		}
		if size >= packet.OuterHdrLen+cfg.AttackPktSize {
			res.AttackDelivered++
		}
	}

	// Legitimate streamers knock until granted, then stream full-size
	// messages at the configured pace. Sent counts only full-size
	// messages — the same rule the overlay runner uses.
	sendStop := tvatime.Time(cfg.Duration - scfg.Drain)
	for i := 0; i < cfg.NumUsers; i++ {
		flow := &res.PerFlow[i]
		b.shimFlood(b.newUser(i), DestAddr, scfg.MsgBytes, 0, sendStop, scfg.MsgInterval, func() {
			flow.Sent++
			res.LegitSent++
		})
	}

	// Attackers: the legacy flood of §5.1, with injection counted.
	for i := 0; i < cfg.NumAttackers; i++ {
		b.rawFlooder(i, tvatime.Time(cfg.AttackStart), sendStop, func(pkt *packet.Packet) {
			b.legacyPacket(pkt)
			res.AttackSent++
		})
	}

	b.simulate(res.DeliveredFraction)

	res.BottleneckUtilization = b.lr.Utilization(cfg.Duration)
	res.BottleneckDrops = b.lr.Stats().DroppedPkts
	res.Telemetry = b.tel
	b.sim.Teardown()
	return res
}
