// Run-level observability: every experiment carries a RunTelemetry
// with reason-attributed drop counters, delay sketches, and (when
// enabled) the streaming metrics registry and the span flight
// recorder. All of it is preallocated or fixed-size, so instrumented
// and uninstrumented runs execute the same hot path (DESIGN.md §8).
package exp

import (
	"tva/internal/flowstats"
	"tva/internal/metrics"
	"tva/internal/netsim"
	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// RunTelemetry aggregates one run's observability output.
type RunTelemetry struct {
	// SchedDrops attributes the forward bottleneck scheduler's enqueue
	// drops by reason; SchedDrops.Total() equals
	// Result.BottleneckDrops exactly.
	SchedDrops telemetry.DropCounters

	// Demotions counts capability-check failures at TVA routers by
	// cause. A demotion is not a loss — the packet continues as legacy
	// traffic (§3.8) — so these are reported separately from drops.
	Demotions telemetry.DropCounters

	// HostEgressDrops counts packets lost in the hosts' own output
	// queues. Without it that loss is silent and skews goodput.
	HostEgressDrops uint64

	// LinkDrops attributes fault losses — wire loss, down-window cuts,
	// restart flushes — across both routers' interfaces, by reason.
	// These are physical-layer losses, separate from SchedDrops'
	// queue-full enqueue drops, so the SchedDrops/BottleneckDrops
	// equality is unaffected by fault injection.
	LinkDrops telemetry.DropCounters

	// QueueDelay is the distribution of time spent in the forward
	// bottleneck's output queue (virtual-time nanoseconds, enqueue to
	// dequeue). With metrics on it also feeds tva_queue_wait_ns.
	QueueDelay *metrics.Sketch

	// Delivery is the end-to-end latency distribution of packets
	// arriving at the destination host (virtual-time nanoseconds, send
	// stamp to delivery).
	Delivery *metrics.Sketch

	// GoodputBytes is the cumulative wire bytes delivered to the
	// destination host (attack payloads included; compare against
	// transfer records to separate useful work).
	GoodputBytes uint64

	// Flows is the bottleneck's per-sender accounting unit: top-K
	// bytes/pkts/drops/demotions plus the exact byte total, fed by the
	// left router's capability engine and the bottleneck scheduler's
	// drop sites. Always on (O(K) memory, allocation-free recording);
	// snapshot via Result.Flows.
	Flows *flowstats.Collector

	// Fairness is the exact per-window fairness engine over the
	// legitimate users (the simulator knows the population, so this is
	// ground truth rather than the overlay's tracked-sender
	// approximation). Rolled once per metrics window; whole-run
	// indices land in Result.FairnessJain / Result.MaxMinRatio.
	Fairness *flowstats.Fairness

	// Metrics is the streaming time-series registry, carrying the same
	// series names the overlay router serves at /metrics (shared-name
	// contract: tvatop and offline tooling read both data planes
	// identically). Ticked at MetricsInterval of virtual time; nil
	// unless Config.MetricsInterval > 0.
	Metrics *metrics.Registry

	// Health is the attack-onset detector, ticked just before Metrics
	// each interval so the registry's tva_health_state row reflects the
	// state after that interval's observation; nil unless metrics are
	// on. Its transition log is the run's health timeline.
	Health *metrics.Detector

	// Spans is the packet-lifecycle flight recorder: every injected
	// packet's send, verdict, queue, transmit, drop, demotion, and
	// delivery edges; nil unless Config.SpanCapacity > 0.
	Spans *trace.Recorder

	// DropStorm reports that the drop-storm detector fired: the forward
	// bottleneck's enqueue drops grew by at least Config.DropStormPkts
	// within one detection window. DropStormAt is the end of the first
	// such window. tvasim dumps the flight recorder when this latches.
	DropStorm   bool
	DropStormAt tvatime.Time
}

// newRunTelemetry allocates the parts of a run's telemetry that are
// always on: the delay sketches and the per-sender and fairness
// accounting. Per-sender accounting is O(K) memory, allocation-free
// recording, and never changes a packet's fate, so instrumented and
// plain runs stay packet-for-packet identical.
func newRunTelemetry(numUsers int) RunTelemetry {
	return RunTelemetry{
		QueueDelay: new(metrics.Sketch),
		Delivery:   new(metrics.Sketch),
		Flows:      flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth),
		Fairness:   flowstats.NewFairness(numUsers),
	}
}

// userIndex maps a legitimate user's address back to its index (the
// inverse of UserAddr); any other address — attackers, the colluder —
// returns -1, which the fairness engine ignores.
func userIndex(addr packet.Addr) int {
	a := uint32(addr) - 1
	if a>>16 != 10<<8 { // not in 10.0.0.0/16
		return -1
	}
	return int(a & 0xffff)
}

// instrumentDest wraps the destination host's handler to record
// end-to-end latency, delivered bytes and per-sender fairness
// accounting.
func (b *builder) instrumentDest(dest *host) {
	sim, tel := b.sim, &b.tel
	inner := dest.node.Handler
	dest.node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, in *netsim.Iface) {
		if pkt.SentAt > 0 {
			tel.Delivery.Observe(int64(sim.Now().Sub(pkt.SentAt)))
		}
		tel.GoodputBytes += uint64(pkt.Size)
		tel.Fairness.Account(userIndex(pkt.Src), uint64(pkt.Size))
		inner.Receive(pkt, in)
	})
}

// traceDelivery wraps a host node's handler so every traced packet
// terminating there emits the deliver span, closing its lifecycle
// chain. A no-op without a recorder, so untraced runs keep the
// original handler and its cost profile.
func (b *builder) traceDelivery(n *netsim.Node) {
	rec := b.spans
	if rec == nil {
		return
	}
	sim := b.sim
	inner := n.Handler
	n.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, in *netsim.Iface) {
		if pkt.TraceID != 0 {
			sp := sim.SpanFor(pkt, trace.EdgeDeliver)
			if in != nil {
				sp.Hop = in.Hop
			}
			rec.Record(sp)
		}
		inner.Receive(pkt, in)
	})
}

// watchDropStorm arms the drop-storm detector on the forward
// bottleneck: each window it compares the enqueue-drop delta against
// Config.DropStormPkts and latches tel.DropStorm on the first
// crossing. The window is MetricsInterval when metrics are on, else
// 100 ms.
func (b *builder) watchDropStorm() {
	if b.cfg.DropStormPkts <= 0 {
		return
	}
	tel, lr := &b.tel, b.lr
	threshold := uint64(b.cfg.DropStormPkts)
	window := b.cfg.MetricsInterval
	if window <= 0 {
		window = 100 * tvatime.Millisecond
	}
	sim := b.sim
	var last uint64
	stop := sim.Every(window, func() {
		cur := lr.Stats().DroppedPkts
		if !tel.DropStorm && cur-last >= threshold {
			tel.DropStorm = true
			tel.DropStormAt = sim.Now()
		}
		last = cur
	})
	b.stops = append(b.stops, stop)
}

// startMetrics builds the streaming registry and health detector for
// the run — the virtual-time twin of overlay.Router.Metrics. Series
// registration order is fixed (never map iteration), so same-seed
// runs emit byte-identical CSV/JSON/exposition. completion reports
// the live fraction of decided legitimate transfers that completed —
// the run's service-level objective, sampled as
// tva_legit_completion_fraction.
func (b *builder) startMetrics(completion func() float64) {
	cfg := b.cfg
	if cfg.MetricsInterval <= 0 {
		return
	}
	tel, lr := &b.tel, b.lr
	window := min(int(cfg.Duration/cfg.MetricsInterval)+2, 1<<16)
	reg := metrics.New(window)
	det := metrics.NewDetector()
	tel.Metrics = reg
	tel.Health = det
	sim := b.sim

	// Health transitions become trace spans too, so a flight-recorder
	// dump shows the onset verdicts interleaved with packet lifecycles.
	if rec := b.spans; rec != nil {
		det.OnTransition = func(tr metrics.Transition) {
			rec.Record(trace.Span{
				Time:  tr.At,
				Edge:  trace.EdgeHealth,
				Kind:  uint8(tr.From) + 1,
				Class: uint8(tr.To),
			})
		}
	}

	// Bottleneck scheduler occupancy (shared names with the overlay's
	// per-port gauges; the sim plane has one bottleneck, so no port
	// label).
	if tva, ok := lr.Sched.(*sched.TVA); ok {
		mustReg(reg.Gauge(metrics.NameQueuePkts, metrics.L("class", "request"),
			"Backlogged packets at the forward bottleneck, by class.",
			func() float64 { return float64(tva.RequestBacklog()) }))
		mustReg(reg.Gauge(metrics.NameQueuePkts, metrics.L("class", "regular"),
			"Backlogged packets at the forward bottleneck, by class.",
			func() float64 { return float64(tva.RegularBacklog()) }))
		mustReg(reg.Gauge(metrics.NameQueuePkts, metrics.L("class", "legacy"),
			"Backlogged packets at the forward bottleneck, by class.",
			func() float64 { return float64(tva.LegacyBacklog()) }))
		mustReg(reg.Gauge(metrics.NameRegularQueues, nil,
			"Live per-destination fair queues.",
			func() float64 { return float64(tva.RegularQueues()) }))
		mustReg(reg.Gauge(metrics.NameTokenBucket, nil,
			"Request-channel token bucket level in bytes.",
			func() float64 { return tva.TokenLevel(sim.Now()) }))
	} else {
		mustReg(reg.Gauge(metrics.NameQueuePkts, metrics.L("class", "all"),
			"Backlogged packets at the forward bottleneck.",
			func() float64 { return float64(lr.Sched.Len()) }))
	}
	if len(b.tvaRouters) > 0 {
		cache := b.tvaRouters[0].Cache()
		mustReg(reg.Gauge(metrics.NameFlowCacheEntries, nil,
			"Live flow-cache entries at the bottleneck router.",
			func() float64 { return float64(cache.Len()) }))
	}
	mustReg(reg.Counter(metrics.NameGoodputBytes, nil,
		"Wire bytes delivered to the destination host.",
		func() float64 { return float64(tel.GoodputBytes) }))

	// Reason-attributed drops and demotions, same labelled series the
	// overlay registers.
	drops := lr.Sched.DropReasons()
	for i := int(telemetry.DropNone) + 1; i < telemetry.NumDropReasons; i++ {
		reason := telemetry.DropReason(i)
		mustReg(reg.Counter(metrics.NameSchedDrops, metrics.L("reason", reason.String()),
			"Packets dropped by the bottleneck scheduler, by attributed reason.",
			func() float64 { return float64(drops.Get(reason)) }))
	}
	if routers := b.tvaRouters; len(routers) > 0 {
		for i := int(telemetry.DropNone) + 1; i < telemetry.NumDropReasons; i++ {
			reason := telemetry.DropReason(i)
			mustReg(reg.Counter(metrics.NameDemotions, metrics.L("reason", reason.String()),
				"Packets demoted to legacy service, by attributed cause.",
				func() float64 {
					var t uint64
					for _, r := range routers {
						t += r.Demotions.Get(reason)
					}
					return float64(t)
				}))
		}
	}
	rl := lr.Peer
	mustReg(reg.Counter(metrics.NameLinkFaultDrops, nil,
		"Physical-layer fault losses on the bottleneck link, both directions.",
		func() float64 {
			return float64(lr.FaultDrops.Total() + rl.FaultDrops.Total())
		}))
	mustReg(reg.Gauge(metrics.NameTxBurstFill, nil,
		"Mean packets per transmit-loop visit.", sim.TxBurstFill))

	// Queue-wait quantiles, read live from the sketch the bottleneck's
	// transmit path observes every dequeued packet into.
	mustReg(reg.SketchQuantiles(metrics.NameQueueWait, nil,
		"Forward-bottleneck output-queue wait quantiles in nanoseconds.",
		tel.QueueDelay, 0.5, 0.99))

	// Per-sender flow accounting and the streaming fairness indices.
	// The gauges read fields the tick closure below refreshes once per
	// window, so registry sampling itself stays trivially cheap and
	// the fairness window roll happens exactly once per interval.
	flows := tel.Flows
	fair := tel.Fairness
	fg := &struct{ tracked, bytes, topShare, jain, ratio float64 }{jain: 1, ratio: 1}
	rollFlows := func() {
		fair.Roll()
		fg.tracked = float64(flows.Tracked())
		fg.bytes = float64(flows.TotalBytes())
		fg.topShare = flows.TopShare()
		fg.jain = fair.Jain()
		fg.ratio = fair.MaxMinRatio()
	}
	mustReg(reg.Gauge(metrics.NameFlowTrackedSenders, nil,
		"Senders live in the bottleneck's top-K flow table.",
		func() float64 { return fg.tracked }))
	mustReg(reg.Counter(metrics.NameFlowBytes, nil,
		"Bytes observed by the bottleneck's per-sender accounting.",
		func() float64 { return fg.bytes }))
	mustReg(reg.Gauge(metrics.NameFlowTopShare, nil,
		"Top tracked sender's share of all observed bytes.",
		func() float64 { return fg.topShare }))
	mustReg(reg.Gauge(metrics.NameFlowFairnessJain, nil,
		"Jain's fairness index over legit-sender goodput, last window.",
		func() float64 { return fg.jain }))
	mustReg(reg.Gauge(metrics.NameFlowMaxMinRatio, nil,
		"Best/worst legit-sender goodput ratio, last window.",
		func() float64 { return fg.ratio }))

	// The live SLO and the health series.
	mustReg(reg.Gauge(metrics.NameLegitCompletion, nil,
		"Fraction of decided legitimate transfers that completed.",
		completion))
	mustReg(reg.Gauge(metrics.NameHealthState, nil,
		"Attack-onset health: 0=healthy 1=degraded 2=under-attack 3=recovered.",
		det.StateValue))
	mustReg(reg.Counter(metrics.NameHealthTransitions, nil,
		"Health-state transitions since start.",
		func() float64 { return float64(len(det.Transitions()) + det.Overflow()) }))

	// Detector inputs: cumulative bottleneck drops and request-channel
	// backlog pressure.
	dropsTotal := func() float64 { return float64(drops.Total()) }
	pressure := func() float64 { return 0 }
	if tva, ok := lr.Sched.(*sched.TVA); ok {
		pressure = func() float64 { return float64(tva.RequestBacklog()) }
	}

	var lastTick tvatime.Time = -1
	tick := func() {
		now := sim.Now()
		if now == lastTick {
			return // end-of-run sample landing on a periodic tick
		}
		lastTick = now
		rollFlows()
		det.ObserveTick(now, dropsTotal(), pressure())
		reg.Tick(now)
	}
	stop := sim.Every(cfg.MetricsInterval, tick)
	b.stops = append(b.stops, stop)
	b.finalMetrics = tick
}

// mustReg panics on a registration error: startMetrics registers
// everything before the registry's first Tick, so an error here is a
// programming bug (duplicate series), not runtime input.
func mustReg(err error) {
	if err != nil {
		panic(err)
	}
}

// finishTelemetry copies end-of-run counter snapshots into b.tel.
func (b *builder) finishTelemetry() {
	if b.finalMetrics != nil {
		b.finalMetrics()
	}
	tel, lr := &b.tel, b.lr
	tel.SchedDrops = *lr.Sched.DropReasons()
	// Fault losses can happen on any interface either router owns (the
	// restart flush hits the left router's access links too).
	for _, ifc := range lr.Node.Ifaces() {
		tel.LinkDrops.Merge(&ifc.FaultDrops)
	}
	for _, ifc := range lr.Peer.Node.Ifaces() {
		tel.LinkDrops.Merge(&ifc.FaultDrops)
	}
	for _, rtr := range b.tvaRouters {
		tel.Demotions.Merge(&rtr.Demotions)
	}
	for _, q := range b.hostEgs {
		tel.HostEgressDrops += q.DropReasons().Total()
	}
}
