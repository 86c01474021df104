// Topology construction and the simulation driver: the Fig. 7 dumbbell
// with 10 legitimate users, 1–100 attackers, a destination and a
// colluder behind a 10 Mb/s bottleneck. Run and RunStream (stream.go)
// build on the same builder.
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

// builder carries run-scoped construction state: the simulator, the
// run's telemetry and the Fig. 7 dumbbell newBuilder puts on it.
type builder struct {
	cfg Config
	sim *netsim.Sim
	tel RunTelemetry

	left, right   *netsim.Node  // user-side and destination-side routers
	lr            *netsim.Iface // forward bottleneck, left to right
	leftDeployed  bool
	rightDeployed bool

	tvaRouters []*core.Router
	taggerSeed uint64
	stops      []func() // periodic-ticker stops to run after the sim

	hostEgs      []sched.Scheduler // host egress queues (silent-loss audit)
	spans        *trace.Recorder   // nil unless cfg.SpanCapacity > 0
	finalMetrics func()            // end-of-run registry/health tick
}

// newBuilder builds the Fig. 7 dumbbell both drivers run on: the
// simulator, the run's telemetry and span recorder, the two routers
// (possibly only partially deployed, §8), and the bottleneck with its
// accounting hooks and faults. Hosts join it through attachLeft and
// attachRight; simulate runs it.
func newBuilder(cfg Config) *builder {
	sim := netsim.New(cfg.Seed + 1)
	b := &builder{
		cfg:           cfg,
		sim:           sim,
		tel:           newRunTelemetry(cfg.NumUsers),
		leftDeployed:  cfg.Deployment != DeployNone,
		rightDeployed: cfg.Deployment == DeployFull,
	}
	// The span recorder must exist before any topology is built: Connect
	// registers each interface as a hop at construction time.
	if cfg.SpanCapacity > 0 {
		b.spans = trace.NewRecorder(cfg.SpanCapacity)
		sim.Spans = b.spans
		b.tel.Spans = b.spans
	}

	left, prLeft := b.newRouterNode("L", b.leftDeployed)
	right, _ := b.newRouterNode("R", b.rightDeployed)
	b.left, b.right = left, right

	// Bottleneck link (Fig. 7).
	lr, rl := netsim.Connect(left, right, cfg.BottleneckBps, cfg.LinkDelay,
		b.linkSched(cfg.BottleneckBps, b.leftDeployed),
		b.linkSched(cfg.BottleneckBps, b.rightDeployed))
	left.SetDefault(lr)
	right.SetDefault(rl)
	b.lr = lr
	b.attachPushback(prLeft, lr)

	// Per-sender accounting watches the congested point: the left
	// router's engine (TVA observes/demotes there) and the forward
	// bottleneck's scheduler (all schemes drop there).
	flows := b.tel.Flows
	if len(b.tvaRouters) > 0 {
		b.tvaRouters[0].Flows = flows
	}
	switch q := lr.Sched.(type) {
	case *sched.TVA:
		q.Flows = flows
	case *sched.SIFF:
		q.Flows = flows
	case *sched.DropTail:
		q.Flows = flows
	}
	lr.QueueDelay = b.tel.QueueDelay

	b.applyFaults(lr, rl, left)
	return b
}

// attachLeft connects a host to the user-side router over an access
// link; attachRight does the same on the destination side.
func (b *builder) attachLeft(h *host)  { b.attach(h, b.left, b.leftDeployed) }
func (b *builder) attachRight(h *host) { b.attach(h, b.right, b.rightDeployed) }

func (b *builder) attach(h *host, rtr *netsim.Node, deployed bool) {
	hi, ri := netsim.Connect(h.node, rtr, b.cfg.AccessBps, b.cfg.LinkDelay,
		b.hostEgress(), b.linkSched(b.cfg.AccessBps, deployed))
	h.node.SetDefault(hi)
	rtr.AddRoute(h.addr, ri)
}

// newDest builds the destination, a public server granting the
// configured allowance, and attaches it on the right. The caller
// decides what its raw deliveries do.
func (b *builder) newDest() (*host, *core.ServerPolicy) {
	policy := core.NewServerPolicy()
	policy.GrantKB = b.cfg.GrantKB
	policy.GrantTSec = b.cfg.GrantTSec
	dest := newHost(b.sim, "dest", DestAddr, policy, b.cfg)
	b.instrumentDest(dest)
	b.traceDelivery(dest.node)
	b.attachRight(dest)
	return dest, policy
}

// newUser builds legitimate user i and attaches it on the left.
func (b *builder) newUser(i int) *host {
	policy := core.NewClientPolicy()
	policy.Window = b.cfg.Duration + 120*tvatime.Second
	u := newHost(b.sim, "user"+strconv.Itoa(i), UserAddr(i), policy, b.cfg)
	b.traceDelivery(u.node)
	b.attachLeft(u)
	return u
}

// simulate runs the dumbbell to cfg.Duration with the sampler and the
// drop-storm watch on, then stops every ticker and snapshots the
// end-of-run counters into b.tel. completion is the live SLO the
// sampler reports. The caller reads its results before calling
// b.sim.Teardown, which returns packets still in flight to the pool.
func (b *builder) simulate(completion func() float64) {
	b.startMetrics(completion)
	b.watchDropStorm()
	b.sim.Run(tvatime.Time(b.cfg.Duration))
	for _, stop := range b.stops {
		stop()
	}
	b.finishTelemetry()
}

// linkSched builds the scheme's output scheduler for a link direction
// owned by a router; legacy (undeployed) boxes get drop-tail.
func (b *builder) linkSched(bps int64, deployed bool) sched.Scheduler {
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
// incremental deployment). Every node drops expired packets and
// decrements TTL; the scheme's per-packet verdict is the only part
// that varies. For pushback the returned node must additionally be
// wired with attachPushback.
func (b *builder) newRouterNode(name string, deployed bool) (*netsim.Node, *pushback.Router) {
	node := b.sim.NewNode(name)
	// forward is the scheme's verdict on a packet; nil forwards all.
	var forward func(pkt *packet.Packet, in *netsim.Iface) bool
	var pr *pushback.Router
	if deployed {
		switch b.cfg.Scheme {
		case SchemeTVA:
			b.taggerSeed++
			rtr := core.NewRouter(core.RouterConfig{
				ID:            uint8(b.taggerSeed),
				CacheEntries:  4096,
				TrustBoundary: true,
				Tagger:        pathid.NewSeeded(uint64(b.cfg.Seed)*1315423911 + b.taggerSeed),
			})
			rtr.Spans = b.spans
			b.tvaRouters = append(b.tvaRouters, rtr)
			forward = func(pkt *packet.Packet, in *netsim.Iface) bool {
				rtr.Process(pkt, in.Index, b.sim.Now())
				return true
			}
		case SchemeSIFF:
			rtr := siff.NewRouter()
			forward = func(pkt *packet.Packet, _ *netsim.Iface) bool {
				_, drop := rtr.Process(pkt, b.sim.Now())
				return !drop
			}
		case SchemePushback:
			pr = pushback.NewRouter(b.cfg.BottleneckBps)
			forward = func(pkt *packet.Packet, in *netsim.Iface) bool {
				return pr.Arrival(pkt, in.Index, b.sim.Now())
			}
		}
	}
	node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, in *netsim.Iface) {
		if pkt.TTL == 0 {
			packet.Release(pkt)
			return
		}
		pkt.TTL--
		if forward != nil && !forward(pkt, in) {
			packet.Release(pkt)
			return
		}
		node.Send(pkt)
	})
	return node, pr
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
		sent := out.Stats().SentBytes
		pr.RecordSent(sent - lastSent)
		lastSent = sent
		pr.Tick(b.sim.Now())
	})
	b.stops = append(b.stops, stop)
}

// hooks are white-box taps into one run, for tests. The zero value
// taps nothing, which is what Run passes.
type hooks struct {
	// bottleneck receives the forward bottleneck interface after
	// construction, before any traffic starts.
	bottleneck func(lr *netsim.Iface)
	// start receives the simulator and the user hosts once the users
	// are built, before the attackers are.
	start func(sim *netsim.Sim, users []*host)
	// done receives the user hosts, destination host and TVA routers
	// after the run completes.
	done func(users []*host, dest *host, routers []*core.Router)
}

// Run executes one simulation and returns its metrics.
func Run(cfg Config) *Result { return run(cfg, hooks{}) }

func run(cfg Config, hk hooks) *Result {
	cfg = cfg.withDefaults()
	b := newBuilder(cfg)
	sim := b.sim
	if hk.bottleneck != nil {
		hk.bottleneck(b.lr)
	}

	// Destination: blacklists raw flooders.
	dest, destPolicy := b.newDest()
	dest.stack.Listen(DestPort, nil)
	dest.onRaw = func(src packet.Addr, size int, demoted bool) {
		if size >= rawFloodThreshold {
			destPolicy.MarkMisbehaving(src, sim.Now())
		}
	}

	// Colluder: authorizes anything (§5.3) and sinks the flood.
	colluder := newHost(sim, "colluder", ColluderAddr, &core.AllowAllPolicy{}, cfg)
	b.traceDelivery(colluder.node)
	b.attachRight(colluder)

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
		u := b.newUser(i)
		startUser(sim, u, i, cfg, &transfers)
		users = append(users, u)
	}
	if hk.start != nil {
		hk.start(sim, users)
	}

	// Attackers.
	for i := 0; i < cfg.NumAttackers; i++ {
		b.startAttacker(i)
	}

	b.simulate(func() float64 {
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

	if hk.done != nil {
		hk.done(users, dest, b.tvaRouters)
	}

	tel := b.tel
	res := &Result{
		Cfg:                   cfg,
		Transfers:             transfers,
		BottleneckUtilization: b.lr.Utilization(cfg.Duration),
		BottleneckDrops:       b.lr.Stats().DroppedPkts,
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
		conn := u.stack.Dial(DestAddr, DestPort, fileKB*1024)
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

// startAttacker builds attacker i for cfg.Attack and schedules its
// flood on the group schedule (Fig. 11's low-intensity attack).
func (b *builder) startAttacker(i int) {
	cfg := b.cfg
	group := 0
	if cfg.AttackGroups > 1 {
		perGroup := (cfg.NumAttackers + cfg.AttackGroups - 1) / cfg.AttackGroups
		group = i / perGroup
	}
	start := tvatime.Time(cfg.AttackStart) + tvatime.Time(group)*tvatime.Time(groupInterval)
	stop := start.Add(cfg.groupDuration())

	switch cfg.Attack {
	case AttackLegacyFlood:
		b.rawFlooder(i, start, stop, b.legacyPacket)
	case AttackRequestFlood:
		b.rawFlooder(i, start, stop, b.requestPacket)
	case AttackAuthorizedFlood:
		b.shimFlooder(i, ColluderAddr, start, stop)
	case AttackImpreciseAuth:
		b.shimFlooder(i, DestAddr, start, stop)
	}
}

// attackInterval is one attacker's mean packet spacing: AttackPktSize
// bytes at AttackRateBps.
func (b *builder) attackInterval() tvatime.Duration {
	return tvatime.Duration(int64(b.cfg.AttackPktSize) * 8 * int64(tvatime.Second) / b.cfg.AttackRateBps)
}

// rawFlooder builds attacker i as a bare node, with no shim or stack,
// and floods the destination within [start, stop). Each packet leaves
// addressed and stamped; fill gives it its kind and size.
func (b *builder) rawFlooder(i int, start, stop tvatime.Time, fill func(*packet.Packet)) {
	sim := b.sim
	h := &host{addr: AttackerAddr(i), node: sim.NewNode("atk" + strconv.Itoa(i))}
	h.node.Handler = netsim.HandlerFunc(func(pkt *packet.Packet, _ *netsim.Iface) {
		packet.Release(pkt) // reverse traffic sink
	})
	b.traceDelivery(h.node)
	b.attachLeft(h)
	flood(sim, start, stop, b.attackInterval(), func() {
		pkt := packet.AcquirePacket()
		pkt.Src, pkt.Dst, pkt.TTL = h.addr, DestAddr, 64
		pkt.Proto = packet.ProtoRaw
		pkt.SentAt = sim.Now()
		fill(pkt)
		h.node.Send(pkt)
	})
}

// legacyPacket makes a flood packet plain legacy traffic (§5.1).
func (b *builder) legacyPacket(pkt *packet.Packet) {
	pkt.Size = packet.OuterHdrLen + b.cfg.AttackPktSize
}

// requestPacket makes a flood packet a capability request (§5.2).
func (b *builder) requestPacket(pkt *packet.Packet) {
	hdr := pkt.NewHdr()
	hdr.Kind = packet.KindRequest
	hdr.Proto = packet.ProtoRaw
	pkt.Size = packet.OuterHdrLen + hdr.WireSize() + b.cfg.AttackPktSize
}

// shimFlooder builds attacker i as a host whose shim refuses every
// grant and floods raw payloads at target within [start, stop): the
// colluder (§5.3) or the destination (§5.4).
func (b *builder) shimFlooder(i int, target packet.Addr, start, stop tvatime.Time) {
	h := newHost(b.sim, "atk"+strconv.Itoa(i), AttackerAddr(i), core.RefuseAllPolicy{}, b.cfg)
	b.traceDelivery(h.node)
	b.attachLeft(h)
	b.shimFlood(h, target, b.cfg.AttackPktSize, start, stop, b.attackInterval(), nil)
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

// shimFlood sends size-byte raw payloads from h to dst through h's
// shim within [start, stop): while unauthorized it sends small bare
// requests paced at one per 100 ms (a sender wants a grant, and fat
// requests would only clog the rate-limited request channel ahead of
// it); once granted it sends every interval and lets the shim renew.
// sent, if set, runs after each full-size payload.
func (b *builder) shimFlood(h *host, dst packet.Addr, size int, start, stop tvatime.Time, interval tvatime.Duration, sent func()) {
	sim := b.sim
	var lastReq tvatime.Time = -tvatime.Time(tvatime.Second)
	flood(sim, start, stop, interval, func() {
		if h.hasCaps(dst) {
			h.sendRaw(dst, size)
			if sent != nil {
				sent()
			}
			return
		}
		if sim.Now().Sub(lastReq) >= 100*tvatime.Millisecond {
			lastReq = sim.Now()
			h.sendRaw(dst, 0) // bare knock: the shim makes it a request
		}
	})
}
