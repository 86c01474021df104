// Headless stream driver for cross-plane validation (internal/xcheck).
// Run() reproduces the paper's file-transfer methodology; RunStream
// instead drives the workload the loopback overlay deployment can also
// run exactly: each user streams fixed-size raw messages through its
// capability shim to a granting destination while legacy attackers
// flood, and the result is structured counts — messages sent and
// delivered per flow, drops, demotions, queue-wait sketch — rather
// than transfer records. Keeping the workload identical on both planes
// is what makes their metric series comparable.
package exp

import (
	"strconv"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/flowstats"
	"tva/internal/metrics"
	"tva/internal/netsim"
	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// StreamConfig parameterizes one stream run. It is deliberately a
// subset of Config: only knobs the overlay plane can also honour.
type StreamConfig struct {
	Users       int              // legitimate senders (default 10)
	MsgBytes    int              // raw payload per message (default 512)
	MsgInterval tvatime.Duration // per-user send spacing (default 50 ms)

	Attackers     int
	AttackRateBps int64            // per attacker (default 1 Mb/s)
	AttackPktSize int              // attack payload bytes (default 1000)
	AttackStart   tvatime.Duration // default 1 s

	BottleneckBps int64            // default 10 Mb/s
	AccessBps     int64            // default 10 Mb/s
	LinkDelay     tvatime.Duration // default 2 ms

	// Duration is total virtual time; senders and attackers stop Drain
	// before the end so in-flight traffic settles inside the window
	// (defaults 3 s / 500 ms). The overlay runner mirrors both.
	Duration tvatime.Duration
	Drain    tvatime.Duration

	RequestFraction float64 // default 0.05 (the overlay router default)
	GrantKB         uint16  // default 64 (outlives a scenario: the overlay shim cannot renew)
	GrantTSec       uint8   // default 10

	MetricsInterval tvatime.Duration // default 100 ms
	SpanCapacity    int

	Suite capability.Suite
	Seed  int64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Users == 0 {
		c.Users = 10
	}
	if c.MsgBytes == 0 {
		c.MsgBytes = 512
	}
	if c.MsgInterval == 0 {
		c.MsgInterval = 50 * tvatime.Millisecond
	}
	if c.AttackRateBps == 0 {
		c.AttackRateBps = 1_000_000
	}
	if c.AttackPktSize == 0 {
		c.AttackPktSize = 1000
	}
	if c.AttackStart == 0 {
		c.AttackStart = tvatime.Second
	}
	if c.BottleneckBps == 0 {
		c.BottleneckBps = 10_000_000
	}
	if c.AccessBps == 0 {
		c.AccessBps = 10_000_000
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 2 * tvatime.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 3 * tvatime.Second
	}
	if c.Drain == 0 {
		c.Drain = 500 * tvatime.Millisecond
	}
	if c.RequestFraction == 0 {
		c.RequestFraction = 0.05
	}
	if c.GrantKB == 0 {
		c.GrantKB = 64
	}
	if c.GrantTSec == 0 {
		c.GrantTSec = 10
	}
	if c.MetricsInterval == 0 {
		c.MetricsInterval = 100 * tvatime.Millisecond
	}
	if c.Suite.NewKeyed == nil {
		c.Suite = capability.Fast
	}
	return c
}

// expConfig maps the stream knobs onto the simulation Config (TVA
// scheme, full deployment).
func (c StreamConfig) expConfig() Config {
	return Config{
		Scheme:          SchemeTVA,
		Attack:          AttackLegacyFlood,
		NumUsers:        c.Users,
		NumAttackers:    c.Attackers,
		BottleneckBps:   c.BottleneckBps,
		AccessBps:       c.AccessBps,
		LinkDelay:       c.LinkDelay,
		AttackRateBps:   c.AttackRateBps,
		AttackPktSize:   c.AttackPktSize,
		Duration:        c.Duration,
		AttackStart:     c.AttackStart,
		RequestFraction: c.RequestFraction,
		GrantKB:         c.GrantKB,
		GrantTSec:       c.GrantTSec,
		MetricsInterval: c.MetricsInterval,
		SpanCapacity:    c.SpanCapacity,
		Suite:           c.Suite,
		Seed:            c.Seed,
	}.withDefaults()
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

	// WaitSketch is the forward bottleneck's queue-wait distribution
	// (nanoseconds of virtual time), nil when metrics are off.
	WaitSketch *metrics.Sketch

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

// RunStream executes one stream scenario on the simulator plane.
func RunStream(scfg StreamConfig) *StreamResult {
	scfg = scfg.withDefaults()
	cfg := scfg.expConfig()
	sim := netsim.New(cfg.Seed + 1)
	b := &builder{cfg: cfg, sim: sim}

	tel := RunTelemetry{
		Flows:    flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth),
		Fairness: flowstats.NewFairness(cfg.NumUsers),
	}
	if cfg.SpanCapacity > 0 {
		rec := trace.NewRecorder(cfg.SpanCapacity)
		sim.Spans = rec
		tel.Spans = rec
		b.spans = rec
	}

	left, _ := b.newRouterNode("L", true)
	right, _ := b.newRouterNode("R", true)
	lr, rl := netsim.Connect(left, right, cfg.BottleneckBps, cfg.LinkDelay,
		b.linkSched(cfg.BottleneckBps), b.linkSched(cfg.BottleneckBps))
	left.SetDefault(lr)
	right.SetDefault(rl)
	lr.QueueDelay = &tel.QueueDelay

	// Same accounting points as Run: the left engine and the forward
	// bottleneck's scheduler.
	if len(b.tvaRouters) > 0 {
		b.tvaRouters[0].Flows = tel.Flows
	}
	switch q := lr.Sched.(type) {
	case *sched.TVA:
		q.Flows = tel.Flows
	case *sched.SIFF:
		q.Flows = tel.Flows
	case *sched.DropTail:
		q.Flows = tel.Flows
	}

	attachLeft := func(h *host) {
		hi, li := netsim.Connect(h.node, left, cfg.AccessBps, cfg.LinkDelay,
			b.hostEgress(), b.linkSched(cfg.AccessBps))
		h.node.SetDefault(hi)
		left.AddRoute(h.addr, li)
	}
	attachRight := func(h *host) {
		hi, ri := netsim.Connect(h.node, right, cfg.AccessBps, cfg.LinkDelay,
			b.hostEgress(), b.linkSched(cfg.AccessBps))
		h.node.SetDefault(hi)
		right.AddRoute(h.addr, ri)
	}

	// Destination: grants the default allowance; unlike Run it never
	// blacklists raw senders — the overlay host has no misbehaviour
	// detector, and the planes must apply identical policy.
	destPolicy := core.NewServerPolicy()
	destPolicy.GrantKB = cfg.GrantKB
	destPolicy.GrantTSec = cfg.GrantTSec
	dest := newHost(sim, "dest", DestAddr, destPolicy, cfg)

	res := &StreamResult{Cfg: scfg, PerFlow: make([]FlowCount, scfg.Users)}
	userIdx := make(map[packet.Addr]int, scfg.Users)
	for i := 0; i < scfg.Users; i++ {
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
		if size >= packet.OuterHdrLen+scfg.AttackPktSize {
			res.AttackDelivered++
		}
	}
	b.instrumentDest(dest, &tel, nil)
	b.traceDelivery(dest.node)
	attachRight(dest)

	// Legitimate streamers: while unauthorized, knock (a bare request
	// the shim retransmits) at most once per 100 ms; once granted,
	// stream full-size messages at the configured pace. Sent counts
	// only full-size messages — the same rule the overlay runner uses.
	sendStop := tvatime.Time(cfg.Duration - scfg.Drain)
	for i := 0; i < scfg.Users; i++ {
		policy := core.NewClientPolicy()
		policy.Window = cfg.Duration + 120*tvatime.Second
		u := newHost(sim, "user"+strconv.Itoa(i), UserAddr(i), policy, cfg)
		u.onRaw = func(packet.Addr, int, bool) {}
		b.traceDelivery(u.node)
		attachLeft(u)

		idx := i
		var lastKnock tvatime.Time = -tvatime.Time(tvatime.Second)
		flood(sim, 0, sendStop, scfg.MsgInterval, func() {
			if u.hasCaps(DestAddr) {
				u.sendRaw(DestAddr, scfg.MsgBytes)
				res.PerFlow[idx].Sent++
				res.LegitSent++
				return
			}
			if sim.Now().Sub(lastKnock) >= 100*tvatime.Millisecond {
				lastKnock = sim.Now()
				u.sendRaw(DestAddr, 0)
			}
		})
	}

	// Attackers: the legacy flood of §5.1, with injection counted.
	atkInterval := tvatime.Duration(int64(cfg.AttackPktSize) * 8 * int64(tvatime.Second) / cfg.AttackRateBps)
	for i := 0; i < scfg.Attackers; i++ {
		node := sim.NewNode("atk" + strconv.Itoa(i))
		node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, _ *netsim.Iface) {
			packet.Release(pkt) // reverse traffic sink
		})
		b.traceDelivery(node)
		h := &host{addr: AttackerAddr(i), node: node}
		attachLeft(h)
		addr := h.addr
		flood(sim, tvatime.Time(cfg.AttackStart), sendStop, atkInterval, func() {
			pkt := packet.AcquirePacket()
			pkt.Src, pkt.Dst, pkt.TTL = addr, DestAddr, 64
			pkt.Proto = packet.ProtoRaw
			pkt.Size = packet.OuterHdrLen + cfg.AttackPktSize
			pkt.SentAt = sim.Now()
			node.Send(pkt)
			res.AttackSent++
		})
	}

	b.startMetrics(&tel, lr, func() float64 {
		if res.LegitSent == 0 {
			return 1
		}
		return float64(res.LegitDelivered) / float64(res.LegitSent)
	})

	sim.Run(tvatime.Time(cfg.Duration))
	for _, stop := range b.stops {
		stop()
	}
	b.finishTelemetry(&tel, lr)

	res.BottleneckUtilization = lr.Utilization(cfg.Duration)
	res.BottleneckDrops = lr.Stats.DroppedPkts
	res.WaitSketch = lr.WaitSketch
	res.Telemetry = tel
	sim.Teardown()
	return res
}
