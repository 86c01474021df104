package overlay

import (
	"sync"

	"tva/internal/flowstats"
	"tva/internal/metrics"
	"tva/internal/sched"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// RouterMetrics bundles a Router's streaming metrics registry with
// its attack-onset health detector. Build it once (after routes are
// installed — per-port series are registered for the ports that exist
// then), hand the Registry to an HTTP /metrics handler, and drive
// Tick from a wall-clock ticker. The series names match the ones the
// simulator's exp harness registers, so tvatop and offline tooling
// read both data planes identically.
type RouterMetrics struct {
	Registry *metrics.Registry
	Health   *metrics.Detector
	router   *Router

	// Flow-series state: Tick recomputes these once per interval from a
	// FlowSnapshot (the gauge closures must stay cheap — a registry
	// sample may not walk every owner's table), and any goroutine may
	// read them through the registry, hence the mutex. flowPrev carries
	// each tracked sender's last-window byte count for SampleFairness.
	flowMu       sync.Mutex
	flowPrev     map[flowstats.Key]uint64
	flowTracked  float64
	flowBytes    float64
	flowTopShare float64
	flowJain     float64
	flowRatio    float64
}

// Metrics builds the router's registry: forwarding totals, per-reason
// scheduler drops and demotions, flow-cache occupancy, queue-wait
// quantiles, burst fill, one labelled gauge set per neighbour port,
// and the health state. window is the number of retained tick rows.
// Every value has exactly one source of truth — the router's own
// counters — and the expvar diagnostics in tvarouter re-read the same
// registry, so /metrics and /debug/vars can never disagree.
func (r *Router) Metrics(window int, health metrics.DetectorConfig) *RouterMetrics {
	reg := metrics.New(window)
	det := metrics.NewDetector(health)
	m := &RouterMetrics{Registry: reg, Health: det, router: r}

	// Forwarding totals (overlay-plane series).
	mustReg(reg.Counter(metrics.NameRouterReceived, nil,
		"Datagrams received on the router socket.",
		func() float64 { return float64(r.Received.Load()) }))
	mustReg(reg.Counter(metrics.NameRouterForwarded, nil,
		"Packets routed toward a neighbour port.",
		func() float64 { return float64(r.Forwarded.Load()) }))
	mustReg(reg.Counter(metrics.NameRouterUnroutable, nil,
		"Packets with no route and no default port.",
		func() float64 { return float64(r.Unroutable.Load()) }))
	mustReg(reg.Counter(metrics.NameRouterMalformed, nil,
		"Datagrams that failed TVA header parsing.",
		func() float64 { return float64(r.Malformed.Load()) }))

	// Reason-attributed scheduler drops and demotions (shared-name
	// series; the simulator registers the same names).
	for i := 1; i < telemetry.NumDropReasons; i++ {
		reason := telemetry.DropReason(i)
		mustReg(reg.Counter(metrics.NameSchedDrops, metrics.L("reason", reason.String()),
			"Packets dropped by link schedulers, by attributed reason.",
			func() float64 { d := r.SchedDrops(); return float64(d.Get(reason)) }))
		mustReg(reg.Counter(metrics.NameDemotions, metrics.L("reason", reason.String()),
			"Packets demoted to legacy service, by attributed cause.",
			func() float64 { d := r.CoreDemotions(); return float64(d.Get(reason)) }))
	}

	mustReg(reg.Gauge(metrics.NameFlowCacheEntries, nil,
		"Live flow-cache entries at this router.",
		func() float64 { return float64(r.FlowCacheEntries()) }))
	mustReg(reg.Gauge(metrics.NameQueueWaitEWMA, nil,
		"EWMA output-queue wait in microseconds (the hop-report value).",
		func() float64 { return float64(r.QueueWaitMicros()) }))
	mustReg(reg.SketchQuantiles(metrics.NameQueueWait, nil,
		"Output-queue wait quantiles in nanoseconds.",
		&r.waitSketch, 0.5, 0.99))
	mustReg(reg.Gauge(metrics.NameRxBurstFill, nil,
		"Mean datagrams per socket read burst.", r.RxBurstFill))
	mustReg(reg.Gauge(metrics.NameTxBurstFill, nil,
		"Mean datagrams per send burst across ports.", r.TxBurstFill))

	// Per-port scheduler gauges, labelled by neighbour address (in
	// portList's sorted order, so columns are stable). Ports created
	// after this point (late AddRoute) are not re-registered: the
	// series set seals at the first Tick.
	for _, p := range r.portList() {
		k := p.key
		// occupancy reads one scheduler figure under the port lock.
		occupancy := func(f func(*sched.TVA) int) func() float64 {
			return func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return float64(f(p.q))
			}
		}
		mustReg(reg.Gauge(metrics.NameQueuePkts, metrics.L("port", k, "class", "request"),
			"Backlogged packets per port and class.", occupancy((*sched.TVA).RequestBacklog)))
		mustReg(reg.Gauge(metrics.NameQueuePkts, metrics.L("port", k, "class", "regular"),
			"Backlogged packets per port and class.", occupancy((*sched.TVA).RegularBacklog)))
		mustReg(reg.Gauge(metrics.NameQueuePkts, metrics.L("port", k, "class", "legacy"),
			"Backlogged packets per port and class.", occupancy((*sched.TVA).LegacyBacklog)))
		mustReg(reg.Gauge(metrics.NameRegularQueues, metrics.L("port", k),
			"Live per-destination fair queues.", occupancy((*sched.TVA).RegularQueues)))
		mustReg(reg.Gauge(metrics.NameTokenBucket, metrics.L("port", k),
			"Request-channel token bucket level in bytes.",
			func() float64 { return portTokenLevel(p, r.clock) }))
		mustReg(reg.Counter(metrics.NamePortSent, metrics.L("port", k),
			"Datagrams transmitted toward the neighbour.",
			func() float64 { return float64(p.Sent.Load()) }))
		mustReg(reg.Counter(metrics.NamePortDropped, metrics.L("port", k),
			"Packets dropped at this port's scheduler.",
			func() float64 { return float64(p.Dropped.Load()) }))
	}

	// Per-sender flow accounting (shared-name series; per-sender detail
	// is the /flows JSON endpoint — an open-ended sender population
	// cannot be a labelled series once the registry seals).
	m.flowPrev = make(map[flowstats.Key]uint64)
	m.flowJain, m.flowRatio = 1, 1
	flowField := func(f *float64) func() float64 {
		return func() float64 {
			m.flowMu.Lock()
			defer m.flowMu.Unlock()
			return *f
		}
	}
	mustReg(reg.Gauge(metrics.NameFlowTrackedSenders, nil,
		"Heavy-hitter table entries after the cross-owner merge (at most top-K).",
		flowField(&m.flowTracked)))
	mustReg(reg.Counter(metrics.NameFlowBytes, nil,
		"Total bytes observed by the per-sender accounting engines.",
		flowField(&m.flowBytes)))
	mustReg(reg.Gauge(metrics.NameFlowTopShare, nil,
		"Top tracked sender's fraction of all observed bytes.",
		flowField(&m.flowTopShare)))
	mustReg(reg.Gauge(metrics.NameFlowFairnessJain, nil,
		"Jain's fairness index over tracked senders' per-window byte deltas.",
		flowField(&m.flowJain)))
	mustReg(reg.Gauge(metrics.NameFlowMaxMinRatio, nil,
		"Best/worst tracked-sender goodput ratio per window (1 = fair).",
		flowField(&m.flowRatio)))

	// Health (shared-name series).
	mustReg(reg.Gauge(metrics.NameHealthState, nil,
		"Attack-onset health: 0=healthy 1=degraded 2=under-attack 3=recovered.",
		det.StateValue))
	mustReg(reg.Counter(metrics.NameHealthTransitions, nil,
		"Health-state transitions since start.",
		func() float64 { return float64(len(det.Transitions()) + det.Overflow()) }))
	return m
}

// Tick advances the health detector on the current drop totals and
// request pressure, then samples every series. Call it from a single
// goroutine (the detector is not concurrency-safe; the registry is).
func (m *RouterMetrics) Tick(now tvatime.Time) {
	rows, total := m.router.FlowSnapshot()
	m.flowMu.Lock()
	m.flowTracked = float64(len(rows))
	m.flowBytes = float64(total)
	m.flowTopShare = 0
	if total > 0 && len(rows) > 0 {
		m.flowTopShare = float64(rows[0].Bytes) / float64(total)
	}
	m.flowJain, m.flowRatio = flowstats.SampleFairness(m.flowPrev, rows)
	m.flowMu.Unlock()

	d := m.router.SchedDrops()
	drops := d.Total()
	pressure := float64(m.router.RequestBacklog())
	m.Health.ObserveTick(now, float64(drops), pressure)
	m.Registry.Tick(now)
}

// mustReg panics on a registration error: RouterMetrics registers
// everything before the registry can seal, so an error here is a
// programming bug (duplicate series), not runtime input.
func mustReg(err error) {
	if err != nil {
		panic(err)
	}
}

// portTokenLevel reads the request channel's token level at the
// current wall time.
func portTokenLevel(p *port, clock tvatime.Clock) float64 {
	now := clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.q.TokenLevel(now)
}
