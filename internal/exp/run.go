// Topology construction and the simulation driver: the Fig. 7 dumbbell
// with 10 legitimate users, 1–100 attackers, a destination and a
// colluder behind a 10 Mb/s bottleneck.
package exp

import (
	"strconv"

	"tva/internal/core"
	"tva/internal/flowstats"
	"tva/internal/netsim"
	"tva/internal/packet"
	"tva/internal/pathid"
	"tva/internal/pushback"
	"tva/internal/sched"
	"tva/internal/siff"
	"tva/internal/tcp"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// Well-known addresses of the dumbbell.
var (
	DestAddr     = packet.AddrFrom(192, 168, 0, 1)
	ColluderAddr = packet.AddrFrom(192, 168, 0, 2)
)

// UserAddr returns the i-th legitimate user's address.
func UserAddr(i int) packet.Addr { return packet.AddrFrom(10, 0, byte(i>>8), byte(i)) + 1 }

// AttackerAddr returns the i-th attacker's address.
func AttackerAddr(i int) packet.Addr { return packet.AddrFrom(11, 0, byte(i>>8), byte(i)) + 1 }

// DestPort is the destination's service port.
const DestPort = 80

// rawFloodThreshold separates attack payloads from bare protocol
// packets in the destination's misbehaviour detector.
const rawFloodThreshold = 200

// builder carries run-scoped construction state.
type builder struct {
	cfg Config
	sim *netsim.Sim

	tvaRouters  []*core.Router
	siffRouters []*siff.Router
	taggerSeed  uint64
	stops       []func() // periodic-ticker stops to run after the sim

	hostEgs      []sched.Scheduler // host egress queues (silent-loss audit)
	tracer       telemetry.Tracer  // nil unless cfg.TraceEvents > 0
	spans        *trace.Recorder   // nil unless cfg.SpanCapacity > 0
	finalSample  func()            // end-of-run sampler snapshot
	finalMetrics func()            // end-of-run registry/health tick
}

// linkSched builds the scheme's output scheduler for a link direction
// owned by an upgraded router; legacy boxes get drop-tail.
func (b *builder) linkSched(bps int64) sched.Scheduler {
	return b.linkSchedFor(bps, true)
}

func (b *builder) linkSchedFor(bps int64, deployed bool) sched.Scheduler {
	if !deployed {
		return sched.NewDropTailPkts(50)
	}
	switch b.cfg.Scheme {
	case SchemeTVA:
		return sched.NewTVA(sched.TVAConfig{
			LinkBps:           bps,
			RequestFraction:   b.cfg.RequestFraction,
			RegularQueueBytes: 64 * 1024,
		})
	case SchemeSIFF:
		return sched.NewSIFF(100, 50)
	default:
		return sched.NewDropTailPkts(50)
	}
}

// hostEgress is a host's own output queue (hosts self-pace). The
// builder keeps every one so end-of-run accounting can surface drops
// that happen before traffic even reaches a router.
func (b *builder) hostEgress() sched.Scheduler {
	q := sched.NewDropTailPkts(128)
	b.hostEgs = append(b.hostEgs, q)
	return q
}

// newRouterNode builds a router node for the scheme; an undeployed
// router is a plain legacy forwarder regardless of scheme (§8
// incremental deployment). For pushback the returned node must
// additionally be wired with attachPushback.
func (b *builder) newRouterNode(name string, deployed bool) (*netsim.Node, *pushback.Router) {
	node := b.sim.NewNode(name)
	if !deployed {
		node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, in *netsim.Iface) {
			if pkt.TTL == 0 {
				packet.Release(pkt)
				return
			}
			pkt.TTL--
			node.Send(pkt)
		})
		return node, nil
	}
	switch b.cfg.Scheme {
	case SchemeTVA:
		b.taggerSeed++
		rtr := core.NewRouter(core.RouterConfig{
			ID:            uint8(b.taggerSeed),
			CacheEntries:  4096,
			TrustBoundary: true,
			Tagger:        pathid.NewSeeded(uint64(b.cfg.Seed)*1315423911 + b.taggerSeed),
		})
		rtr.Tracer = b.tracer
		rtr.Spans = b.spans
		b.tvaRouters = append(b.tvaRouters, rtr)
		node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, in *netsim.Iface) {
			if pkt.TTL == 0 {
				packet.Release(pkt)
				return
			}
			pkt.TTL--
			rtr.Process(pkt, in.Index, b.sim.Now())
			node.Send(pkt)
		})
		return node, nil
	case SchemeSIFF:
		rtr := siff.NewRouter(b.cfg.SIFFSecretPeriod)
		b.siffRouters = append(b.siffRouters, rtr)
		node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, in *netsim.Iface) {
			if pkt.TTL == 0 {
				packet.Release(pkt)
				return
			}
			pkt.TTL--
			if _, drop := rtr.Process(pkt, b.sim.Now()); drop {
				packet.Release(pkt)
				return
			}
			node.Send(pkt)
		})
		return node, nil
	case SchemePushback:
		pr := pushback.NewRouter(b.cfg.BottleneckBps, pushback.Config{})
		node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, in *netsim.Iface) {
			if pkt.TTL == 0 {
				packet.Release(pkt)
				return
			}
			pkt.TTL--
			if !pr.Arrival(pkt, in.Index, b.sim.Now()) {
				packet.Release(pkt)
				return
			}
			node.Send(pkt)
		})
		return node, pr
	default:
		node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, in *netsim.Iface) {
			if pkt.TTL == 0 {
				packet.Release(pkt)
				return
			}
			pkt.TTL--
			node.Send(pkt)
		})
		return node, nil
	}
}

// attachPushback wires a pushback router's control loop to its
// congested output interface.
func (b *builder) attachPushback(pr *pushback.Router, out *netsim.Iface) {
	if pr == nil {
		return
	}
	out.OnDrop = pr.RecordDrop
	var lastSent uint64
	stop := b.sim.Every(pr.Interval(), func() {
		pr.RecordSent(out.Stats.SentBytes - lastSent)
		lastSent = out.Stats.SentBytes
		pr.Tick(b.sim.Now())
	})
	b.stops = append(b.stops, stop)
}

// Run executes one simulation and returns its metrics.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	sim := netsim.New(cfg.Seed + 1)
	b := &builder{cfg: cfg, sim: sim}

	// Per-sender accounting is always on: O(K) memory, allocation-free
	// recording, and it never changes a packet's fate — so instrumented
	// and plain runs stay packet-for-packet identical.
	tel := RunTelemetry{
		Flows:    flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth),
		Fairness: flowstats.NewFairness(cfg.NumUsers),
	}
	var tracer *telemetry.RingTracer
	if cfg.TraceEvents > 0 {
		tracer = telemetry.NewRingTracer(cfg.TraceEvents)
		tel.Trace = tracer
		b.tracer = tracer
	}
	// The span recorder must exist before any topology is built: Connect
	// registers each interface as a hop at construction time.
	if cfg.SpanCapacity > 0 {
		rec := trace.NewRecorder(cfg.SpanCapacity)
		sim.Spans = rec
		tel.Spans = rec
		b.spans = rec
	}

	// Routers (possibly only partially deployed, §8).
	leftDeployed := cfg.Deployment != DeployNone
	rightDeployed := cfg.Deployment == DeployFull
	left, prLeft := b.newRouterNode("L", leftDeployed)
	right, _ := b.newRouterNode("R", rightDeployed)

	// Bottleneck link (Fig. 7).
	lr, rl := netsim.Connect(left, right, cfg.BottleneckBps, cfg.LinkDelay,
		b.linkSchedFor(cfg.BottleneckBps, leftDeployed),
		b.linkSchedFor(cfg.BottleneckBps, rightDeployed))
	left.SetDefault(lr)
	right.SetDefault(rl)
	b.attachPushback(prLeft, lr)

	// Per-sender accounting watches the congested point: the left
	// router's engine (TVA observes/demotes there) and the forward
	// bottleneck's scheduler (all schemes drop there).
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

	lr.QueueDelay = &tel.QueueDelay
	if tracer != nil {
		lr.Tracer = tracer
		lr.TraceID = 1 // the left (bottleneck-facing) router
	}

	b.applyFaults(lr, rl, left)

	if Debug != nil {
		Debug(lr)
	}

	attachLeft := func(h *host) {
		hi, li := netsim.Connect(h.node, left, cfg.AccessBps, cfg.LinkDelay,
			b.hostEgress(), b.linkSchedFor(cfg.AccessBps, leftDeployed))
		h.node.SetDefault(hi)
		left.AddRoute(h.addr, li)
	}
	attachRight := func(h *host) {
		hi, ri := netsim.Connect(h.node, right, cfg.AccessBps, cfg.LinkDelay,
			b.hostEgress(), b.linkSchedFor(cfg.AccessBps, rightDeployed))
		h.node.SetDefault(hi)
		right.AddRoute(h.addr, ri)
	}

	// Destination: a public server granting the default allowance and
	// blacklisting raw flooders.
	destPolicy := core.NewServerPolicy()
	destPolicy.GrantKB = cfg.GrantKB
	destPolicy.GrantTSec = cfg.GrantTSec
	dest := newHost(sim, "dest", DestAddr, destPolicy, cfg)
	dest.stack.Listen(DestPort, nil)
	dest.onRaw = func(src packet.Addr, size int, demoted bool) {
		if size >= rawFloodThreshold {
			destPolicy.MarkMisbehaving(src, sim.Now())
		}
	}
	b.instrumentDest(dest, &tel, tracer)
	b.traceDelivery(dest.node)
	attachRight(dest)

	// Colluder: authorizes anything (§5.3).
	colluder := newHost(sim, "colluder", ColluderAddr, &core.AllowAllPolicy{}, cfg)
	colluder.onRaw = func(packet.Addr, int, bool) {} // flood sink
	b.traceDelivery(colluder.node)
	attachRight(colluder)

	// In the request-flood scenario the paper assumes the destination
	// can tell attacker requests from user requests (§5.2); mark the
	// attackers up front so grants are refused.
	if cfg.Attack == AttackRequestFlood {
		for i := 0; i < cfg.NumAttackers; i++ {
			destPolicy.MarkMisbehaving(AttackerAddr(i), 0)
		}
	}

	// Legitimate users.
	var transfers []TransferRecord
	var users []*host
	for i := 0; i < cfg.NumUsers; i++ {
		policy := core.NewClientPolicy()
		policy.Window = cfg.Duration + 120*tvatime.Second
		u := newHost(sim, "user"+strconv.Itoa(i), UserAddr(i), policy, cfg)
		b.traceDelivery(u.node)
		attachLeft(u)
		startUser(sim, u, i, cfg, &transfers)
		users = append(users, u)
	}

	// Attackers.
	for i := 0; i < cfg.NumAttackers; i++ {
		b.startAttacker(i, attachLeft)
	}

	b.startSampler(&tel, lr)
	b.startMetrics(&tel, lr, func() float64 {
		done, decided := 0, 0
		for _, t := range transfers {
			decided++
			if t.Completed {
				done++
			}
		}
		if decided == 0 {
			return 1 // no verdicts yet: the SLO starts unviolated
		}
		return float64(done) / float64(decided)
	})
	b.watchDropStorm(&tel, lr)

	sim.Run(tvatime.Time(cfg.Duration))
	for _, stop := range b.stops {
		stop()
	}
	b.finishTelemetry(&tel, lr)

	if DebugHosts != nil {
		DebugHosts(users, dest, b.tvaRouters)
	}

	res := &Result{
		Cfg:                   cfg,
		Transfers:             transfers,
		BottleneckUtilization: lr.Utilization(cfg.Duration),
		BottleneckDrops:       lr.Stats.DroppedPkts,
		FairnessJain:          flowstats.JainIndex(tel.Fairness.Totals()),
		MaxMinRatio:           flowstats.MaxMinRatio(tel.Fairness.Totals()),
		Telemetry:             tel,
	}
	res.Flows = tel.Flows.AppendSamples(nil)
	flowstats.SortSamples(res.Flows)
	// Only now, with every counter read: packets still in flight or
	// queued at the horizon go back to the pool.
	sim.Teardown()
	return res
}

// startUser begins the sequential 20 KB transfer loop of §5: the next
// transfer starts when the previous completes or aborts.
func startUser(sim *netsim.Sim, u *host, idx int, cfg Config, out *[]TransferRecord) {
	var next func()
	next = func() {
		if sim.Now() >= tvatime.Time(cfg.Duration) {
			return
		}
		start := sim.Now()
		decided := false
		if u.beforeTransfer != nil {
			u.beforeTransfer(DestAddr)
		}
		conn := u.stack.Dial(DestAddr, DestPort, cfg.FileKB*1024, tcp.Config{})
		conn.OnDone = func(ok bool) {
			decided = true
			*out = append(*out, TransferRecord{
				User:      idx,
				Start:     start,
				End:       sim.Now(),
				Completed: ok,
			})
			next()
		}
		// A transfer still unresolved when the measurement window
		// closes has not completed within it; record it as such (the
		// paper's fraction-of-completed-transfers denominator counts
		// every attempt).
		sim.At(tvatime.Time(cfg.Duration), func() {
			if !decided {
				decided = true
				*out = append(*out, TransferRecord{
					User: idx, Start: start, End: sim.Now(), Completed: false,
				})
			}
		})
	}
	// Stagger start times a little so users do not phase-lock.
	offset := tvatime.Duration(sim.Rand().Int63n(int64(200 * tvatime.Millisecond)))
	sim.At(tvatime.Time(offset), next)
}

// startAttacker builds attacker i's host and schedules its flood.
func (b *builder) startAttacker(i int, attach func(*host)) {
	cfg := b.cfg
	sim := b.sim
	addr := AttackerAddr(i)

	// Group schedule (Fig. 11's low-intensity attack).
	group := 0
	if cfg.AttackGroups > 1 {
		perGroup := (cfg.NumAttackers + cfg.AttackGroups - 1) / cfg.AttackGroups
		group = i / perGroup
	}
	start := tvatime.Time(cfg.AttackStart) + tvatime.Time(group)*tvatime.Time(cfg.GroupInterval)
	stop := start.Add(cfg.GroupDuration)

	interval := tvatime.Duration(int64(cfg.AttackPktSize) * 8 * int64(tvatime.Second) / cfg.AttackRateBps)

	switch cfg.Attack {
	case AttackNone:
		return

	case AttackLegacyFlood:
		node := sim.NewNode("atk" + strconv.Itoa(i))
		node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, _ *netsim.Iface) {
			packet.Release(pkt) // reverse traffic sink
		})
		b.traceDelivery(node)
		h := &host{addr: addr, node: node}
		attach(h)
		flood(sim, start, stop, interval, func() {
			pkt := packet.AcquirePacket()
			pkt.Src, pkt.Dst, pkt.TTL = addr, DestAddr, 64
			pkt.Proto = packet.ProtoRaw
			pkt.Size = packet.OuterHdrLen + cfg.AttackPktSize
			pkt.SentAt = sim.Now()
			node.Send(pkt)
		})

	case AttackRequestFlood:
		node := sim.NewNode("atk" + strconv.Itoa(i))
		node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, _ *netsim.Iface) {
			packet.Release(pkt) // reverse traffic sink
		})
		b.traceDelivery(node)
		h := &host{addr: addr, node: node}
		attach(h)
		flood(sim, start, stop, interval, func() {
			pkt := packet.AcquirePacket()
			hdr := pkt.NewHdr()
			hdr.Kind = packet.KindRequest
			hdr.Proto = packet.ProtoRaw
			pkt.Src, pkt.Dst, pkt.TTL = addr, DestAddr, 64
			pkt.Proto = packet.ProtoRaw
			pkt.Size = packet.OuterHdrLen + hdr.WireSize() + cfg.AttackPktSize
			pkt.SentAt = sim.Now()
			node.Send(pkt)
		})

	case AttackAuthorizedFlood:
		h := newHost(sim, "atk"+strconv.Itoa(i), addr, core.RefuseAllPolicy{}, cfg)
		h.onRaw = func(packet.Addr, int, bool) {}
		b.traceDelivery(h.node)
		attach(h)
		b.floodWithCaps(h, ColluderAddr, start, stop, interval)

	case AttackImpreciseAuth:
		h := newHost(sim, "atk"+strconv.Itoa(i), addr, core.RefuseAllPolicy{}, cfg)
		h.onRaw = func(packet.Addr, int, bool) {}
		b.traceDelivery(h.node)
		attach(h)
		b.floodWithCaps(h, DestAddr, start, stop, interval)
	}
}

// flood schedules fn at the given pacing within [start, stop). Packet
// spacing is jittered ±25% (preserving the mean rate) so a fleet of
// constant-bit-rate attackers does not phase-lock with the bottleneck's
// service times, which would unrealistically capture every freed
// drop-tail slot.
func flood(sim *netsim.Sim, start, stop tvatime.Time, interval tvatime.Duration, fn func()) {
	rng := sim.Rand()
	var tick func()
	tick = func() {
		if sim.Now() >= stop {
			return
		}
		fn()
		jitter := 0.75 + 0.5*rng.Float64()
		sim.After(tvatime.Duration(float64(interval)*jitter), tick)
	}
	sim.At(start.Add(tvatime.Duration(rng.Int63n(int64(interval)+1))), tick)
}

// floodWithCaps floods raw payloads through the scheme's shim: while
// unauthorized it sends small bare requests paced at one per 100 ms
// (the attacker wants a grant, and fat requests would only clog the
// rate-limited request channel ahead of it); once granted it floods at
// full rate and lets the shim renew.
func (b *builder) floodWithCaps(h *host, dst packet.Addr, start, stop tvatime.Time, interval tvatime.Duration) {
	sim := b.sim
	size := b.cfg.AttackPktSize
	var lastReq tvatime.Time = -tvatime.Time(tvatime.Second)
	flood(sim, start, stop, interval, func() {
		if h.hasCaps(dst) {
			h.sendRaw(dst, size)
			return
		}
		if sim.Now().Sub(lastReq) >= 100*tvatime.Millisecond {
			lastReq = sim.Now()
			h.sendRaw(dst, 0) // bare knock: the shim makes it a request
		}
	})
}

// Debug, if set, receives the forward bottleneck interface after
// construction (instrumented runs: tests and diagnostics).
var Debug func(bottleneck *netsim.Iface)

// DebugHosts, if set, receives the user hosts, destination host and
// TVA routers after the run completes (white-box assertions in tests).
var DebugHosts func(users []*host, dest *host, routers []*core.Router)
