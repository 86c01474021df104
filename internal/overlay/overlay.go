// Package overlay is the userspace deployment of TVA (paper §6 and
// §8): capability routers and host proxies running as ordinary
// processes over UDP, the "inline packet processing box" form of
// incremental deployment. A Router forwards TVA packets between
// UDP-addressed neighbours, running the same core.Router processing
// and Fig. 2 link scheduling as the simulator; a Host offers a
// capability-protected datagram service to applications.
//
// Concurrency model: one data path at every width. The receive
// goroutine runs rx.recvBatch → decode → shards.process → dispatch on
// bursts of up to RouterConfig.Batch datagrams; capability state lives
// in RouterConfig.Shards core.Router replicas, each guarded by its
// worker's lock (one replica is driven inline on the receive
// goroutine, more by flow-hashed worker goroutines — see shard.go).
// Each neighbour has one port goroutine running dequeue → encode →
// transmit (tx.sendBatch) → pace; port.mu guards that port's
// scheduler, which the receive goroutine fills and the port goroutine
// drains. This mirrors a router's line-card queues. On linux/amd64
// tx.sendBatch is segment-offloaded: each run of equal-length datagrams
// in a burst goes to the kernel as one UDP_SEGMENT message, so a port
// burst crosses the UDP/IP stack once per run instead of once per
// datagram (mmsg_linux.go); the burst's lengths and the kernel's reply
// decide it, there is no option.
package overlay

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tva/internal/core"
	"tva/internal/flowstats"
	"tva/internal/metrics"
	"tva/internal/packet"
	"tva/internal/pathid"
	"tva/internal/sched"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// maxDatagram is the receive buffer size (payloads are bounded well
// below this).
const maxDatagram = 64 * 1024

// RouterConfig configures an overlay router.
type RouterConfig struct {
	// Listen is the UDP address to bind (e.g. "127.0.0.1:7000").
	Listen string
	// Core configures capability processing (suite, cache, trust
	// boundary). Zero value gives crypto hashing and defaults.
	Core core.RouterConfig
	// LinkBps paces each neighbour link; 0 means unpaced (as fast as
	// the socket allows).
	LinkBps int64
	// RequestFraction is the request-channel share (default 5%).
	RequestFraction float64
	// Batch is the burst width of the data path: how many datagrams
	// one recvmmsg/sendmmsg crossing, one ProcessBatch and one
	// scheduler crossing may carry (0 and 1 both mean one; clamped to
	// packet.DefaultBatchCap). Every width runs the same loops. Within
	// a send burst, equal-length neighbours share one segmented kernel
	// message, so the width also bounds how much egress coalesces
	// (width 1 always sends plain messages). On platforms without mmsg
	// syscalls reads return one datagram per call whatever the width.
	Batch int
	// Shards is the number of flow-hashed capability-processing
	// workers sharing one authority (see shard.go). 0 and 1 both mean
	// one, which runs inline on the receive goroutine.
	Shards int
	// Spans, if non-nil, records packet-lifecycle spans: every received
	// packet gets a fresh trace ID at this router's ingress and its
	// enqueue/dequeue/tx edges at the output ports are recorded through
	// the sink (which serializes access to the underlying unsynchronized
	// trace.Recorder). Trace IDs are not carried on the wire, so a
	// multi-router path yields one per-hop span fragment per router —
	// exactly what per-hop wait aggregation (trace.AggregateHops) needs.
	// Must be set before NewRouter; it cannot be attached later.
	Spans *SpanSink
}

// Router is a userspace TVA capability router.
type Router struct {
	conn  *net.UDPConn
	clock tvatime.Clock
	cfg   RouterConfig

	// rx is the socket burst reader, touched only by the receive
	// goroutine; shards is the capability engine (cfg.Shards replicas,
	// each guarded by its worker's mu).
	rx     *batchConn
	shards *shardEngine

	mu     sync.Mutex
	routes map[packet.Addr]*port
	ports  map[string]*port // keyed by neighbour UDP address
	def    *port

	closed chan struct{}
	wg     sync.WaitGroup

	// waitEWMA is the router-wide EWMA of output-queue wait in
	// microseconds, updated by the port goroutines and read (via
	// core.Router.HopWait) when stamping hop reports into requests.
	// waitSketch streams the same per-packet waits (in nanoseconds)
	// into the metrics layer's quantile sketch.
	waitEWMA   atomic.Uint32
	waitSketch metrics.Sketch

	// Stats, written by the receive goroutine and read concurrently by
	// the metrics registry, stats printers, and tests — atomics so a
	// live scrape never races the data path. Every datagram read ends
	// in exactly one of the four outcomes: Received == Forwarded +
	// Unroutable + Malformed + Expired (TTL ran out here).
	// RxBursts/RxBurstPkts count socket read bursts and the datagrams
	// they carried; their ratio is the ingress fill level (RxBurstFill).
	Received, Forwarded, Unroutable, Malformed, Expired atomic.Uint64
	RxBursts, RxBurstPkts                               atomic.Uint64
}

// port is one neighbour link: an output scheduler paced at the link
// rate by its own goroutine.
type port struct {
	key  string // neighbour UDP address, the r.ports key
	to   *net.UDPAddr
	bps  int64
	mu   sync.Mutex
	cond *sync.Cond
	q    *sched.TVA
	// refuse counts and releases a packet the scheduler turned away;
	// built once per port so enqueue allocates nothing per run.
	refuse func(*packet.Packet)

	// waitSketch streams this port's per-packet output-queue waits
	// (nanoseconds). The router-wide sketch mixes every port's traffic;
	// the per-port one lets cross-plane comparison read the congested
	// link in isolation, the way the simulator's bottleneck sketch does.
	waitSketch metrics.Sketch

	// spans/hop: packet-lifecycle recording for this port's queue
	// (nil/NoHop when RouterConfig.Spans is unset).
	spans *SpanSink
	hop   uint16

	// Sent/Dropped and the burst counters are written by the port
	// goroutine (Dropped by the receive goroutine) and read concurrently
	// by diagnostics — atomics for the same reason as the Router totals.
	// Every dequeued packet ends in exactly one of Sent (the kernel took
	// its datagram) or TxFailed (it would not marshal, or the kernel
	// rejected it). TxBursts/TxBurstPkts count egress send bursts and
	// the datagrams they offered, TxMsgs the kernel messages that
	// carried the accepted ones: TxBurstPkts/TxMsgs is the coalescing
	// ratio (1 where nothing coalesces).
	Sent, Dropped, TxFailed       atomic.Uint64
	TxBursts, TxBurstPkts, TxMsgs atomic.Uint64

	// Egress burst state, touched only by the port's own output
	// goroutine: tx is its sendmmsg state (per-run segmented messages
	// and the port's segment ceiling), pkts the dequeued burst,
	// backing the per-slot marshal buffers, out the encoded datagrams,
	// txs their pending tx spans, and nextTx when the emulated link
	// next frees up (see pace).
	tx      *batchConn
	pkts    []*packet.Packet
	backing [][]byte
	out     [][]byte
	txs     []trace.Span
	nextTx  tvatime.Time
}

// paceCredit bounds how far behind its emulated transmit schedule a
// port may fall before catch-up credit stops accruing: sleep overshoot
// within this window is repaid by back-to-back sends, so the effective
// link rate converges to bps instead of drifting below it, while an
// idle link cannot bank credit for an unbounded burst later.
const paceCredit = 5 * time.Millisecond

// pace blocks until the emulated link has finished serializing
// wireBytes. Credit-based: the deadline advances from the previous
// deadline, not from "now", so timer overshoot on one packet is repaid
// on the next instead of compounding into a lower effective rate.
func (p *port) pace(clock tvatime.Clock, wireBytes int) {
	if p.bps <= 0 || wireBytes <= 0 {
		return
	}
	now := clock.Now()
	if floor := now.Add(-paceCredit); p.nextTx.Before(floor) {
		p.nextTx = floor
	}
	p.nextTx = p.nextTx.Add(time.Duration(int64(wireBytes) * 8 * int64(time.Second) / p.bps))
	if d := p.nextTx.Sub(now); d > 0 {
		time.Sleep(d)
	}
}

// span records one lifecycle edge for pkt at this port. A nil check
// and, when recording, one mutex crossing — the overlay is not the
// zero-alloc hot path, so clarity wins here.
func (p *port) span(pkt *packet.Packet, edge trace.Edge, now tvatime.Time) {
	if p.spans != nil && pkt.TraceID != 0 {
		p.spans.Record(p.spanAt(pkt, edge, now))
	}
}

// spanAt builds pkt's span for one edge at this port's hop.
func (p *port) spanAt(pkt *packet.Packet, edge trace.Edge, now tvatime.Time) trace.Span {
	return trace.Span{
		ID: pkt.TraceID, Time: now,
		Src: uint32(pkt.Src), Dst: uint32(pkt.Dst), Size: uint32(pkt.Size),
		Hop: p.hop, Edge: edge, Class: uint8(pkt.Class),
	}
}

// NewRouter binds the router's socket and starts its receive loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("overlay: resolve %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("overlay: listen: %w", err)
	}
	if cfg.RequestFraction <= 0 {
		cfg.RequestFraction = 0.05
	}
	cfg.Batch = min(max(cfg.Batch, 1), packet.DefaultBatchCap)
	cfg.Shards = max(cfg.Shards, 1)
	// Shard replicas must share the path-identifier tagger, so pin it
	// before any router replica is built (core would otherwise mint a
	// private one per replica and tags would disagree across shards).
	if cfg.Core.TrustBoundary && cfg.Core.Tagger == nil {
		cfg.Core.Tagger = pathid.New()
	}
	rx, err := newBatchConn(conn, cfg.Batch)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("overlay: batch io: %w", err)
	}
	r := &Router{
		conn:   conn,
		clock:  tvatime.WallClock{},
		cfg:    cfg,
		rx:     rx,
		routes: make(map[packet.Addr]*port),
		ports:  make(map[string]*port),
		closed: make(chan struct{}),
	}
	sub := cfg.Core
	r.shards = newShardEngine(cfg.Shards, func() *core.Router {
		w := core.NewRouter(sub)
		// The first replica mints the authority (unless the caller
		// supplied one); every later replica shares it, so all shards
		// mint and validate identical capabilities.
		sub.Authority = w.Authority()
		// Hop-wait attribution: requests that opt in (WantHops) get
		// stamped with this router's current queue-wait estimate, which
		// travels back to the sender in return information (tvaping
		// shows it per hop).
		w.HopWait = r.waitEWMA.Load
		// Per-sender accounting: one collector per state owner, guarded
		// by that owner's existing lock (shardWorker.mu per replica,
		// port.mu per port scheduler); FlowSnapshot merges them.
		w.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
		return w
	})
	r.wg.Add(1)
	go r.receiveLoop()
	return r, nil
}

// RxBurstFill returns the mean datagrams per socket read burst:
// exactly 1.0 at width 1, approaching the batch size under load at
// larger widths, 0 before the first datagram.
func (r *Router) RxBurstFill() float64 {
	if r.RxBursts.Load() == 0 {
		return 0
	}
	return float64(r.RxBurstPkts.Load()) / float64(r.RxBursts.Load())
}

// TxBurstFill returns the mean datagrams per send burst across all
// ports (the same scale as RxBurstFill).
func (r *Router) TxBurstFill() float64 {
	var bursts, pkts uint64
	for _, p := range r.portList() {
		bursts += p.TxBursts.Load()
		pkts += p.TxBurstPkts.Load()
	}
	if bursts == 0 {
		return 0
	}
	return float64(pkts) / float64(bursts)
}

// CoreStats aggregates processing outcomes across shard replicas.
func (r *Router) CoreStats() core.RouterStats { return r.shards.stats() }

// CoreDemotions aggregates demotion attribution across shard replicas.
func (r *Router) CoreDemotions() telemetry.DropCounters { return r.shards.demotions() }

// FlowCacheEntries sums live flow-cache entries across shard replicas.
func (r *Router) FlowCacheEntries() int {
	n := 0
	r.shards.each(func(c *core.Router) { n += c.Cache().Len() })
	return n
}

// FlowSnapshot merges every owner's per-sender table — the capability
// engine's shard replicas and each port scheduler's drop accounting —
// into one top-K view, plus the total bytes the engines observed.
// MergeSamples keys the fold and fixes the final order (bytes
// descending, key ascending), so the result is deterministic
// regardless of shard count, port order, or merge order: the same
// traffic always yields the same rows.
func (r *Router) FlowSnapshot() ([]flowstats.Sample, uint64) {
	var samples []flowstats.Sample
	var total uint64
	r.shards.each(func(c *core.Router) {
		samples = c.Flows.AppendSamples(samples)
		total += c.Flows.TotalBytes()
	})
	r.eachPort(func(p *port) { samples = p.q.Flows.AppendSamples(samples) })
	return flowstats.MergeSamples(samples, flowstats.DefaultTopK), total
}

// QueueWaitMicros returns the router's EWMA output-queue wait in
// microseconds (the value stamped into hop reports).
func (r *Router) QueueWaitMicros() uint32 { return r.waitEWMA.Load() }

// WaitSketch exposes the quantile sketch of per-packet output-queue
// waits (nanoseconds), the overlay's source for the shared
// tva_queue_wait_ns series.
func (r *Router) WaitSketch() *metrics.Sketch { return &r.waitSketch }

// PortWaitSketch returns the per-port wait sketch for the port toward
// the given neighbour UDP address, or nil if no such port exists. The
// cross-plane harness reads the congested link's port here, so its
// distribution lines up with the simulator's bottleneck sketch instead
// of mixing in reverse-direction ports.
func (r *Router) PortWaitSketch(neighbor string) *metrics.Sketch {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.ports[neighbor]; ok {
		return &p.waitSketch
	}
	return nil
}

// PortSchedDrops returns the reason-attributed drop counts of the
// scheduler on the port toward neighbor (zero counters when the port
// does not exist).
func (r *Router) PortSchedDrops(neighbor string) telemetry.DropCounters {
	r.mu.Lock()
	p := r.ports[neighbor]
	r.mu.Unlock()
	var out telemetry.DropCounters
	if p != nil {
		p.mu.Lock()
		out.Merge(p.q.DropReasons())
		p.mu.Unlock()
	}
	return out
}

// portList snapshots the ports under r.mu, sorted by neighbour
// address so every per-port view (gauges, registry columns, merges)
// has a stable order regardless of map iteration. Callers take each
// port's own lock afterwards, never while holding r.mu.
func (r *Router) portList() []*port {
	r.mu.Lock()
	ports := make([]*port, 0, len(r.ports))
	for _, p := range r.ports {
		ports = append(ports, p)
	}
	r.mu.Unlock()
	sort.Slice(ports, func(i, j int) bool { return ports[i].key < ports[j].key })
	return ports
}

// eachPort runs f on every port in portList order under that port's
// lock — how readers outside the data path reach scheduler state.
func (r *Router) eachPort(f func(*port)) {
	for _, p := range r.portList() {
		p.mu.Lock()
		f(p)
		p.mu.Unlock()
	}
}

// RequestBacklog sums backlogged request-class packets across all
// ports — the request-channel pressure signal the health detector
// watches (a request flood backs this up before anything overflows).
func (r *Router) RequestBacklog() int {
	n := 0
	r.eachPort(func(p *port) { n += p.q.RequestBacklog() })
	return n
}

// observeWait folds one packet's measured queue wait into the EWMA
// (gain 1/8, matching TCP's RTT smoothing) and streams it into the
// router-wide and per-port wait sketches.
func (r *Router) observeWait(p *port, d time.Duration) {
	r.waitSketch.Observe(int64(d))
	p.waitSketch.Observe(int64(d))
	us := uint32(d / time.Microsecond)
	for {
		old := r.waitEWMA.Load()
		next := old - old/8 + us/8
		if old == 0 {
			next = us
		}
		if r.waitEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// Addr returns the bound UDP address.
func (r *Router) Addr() *net.UDPAddr { return r.conn.LocalAddr().(*net.UDPAddr) }

// portFor returns (creating it and starting its output goroutine if
// needed) the port toward the neighbour at via.
func (r *Router) portFor(via string) (*port, error) {
	to, err := net.ResolveUDPAddr("udp", via)
	if err != nil {
		return nil, fmt.Errorf("overlay: route via %q: %w", via, err)
	}
	key := to.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.ports[key]; ok {
		return p, nil
	}
	tx, err := newBatchConn(r.conn, r.cfg.Batch)
	if err != nil {
		return nil, fmt.Errorf("overlay: port %s: batch io: %w", key, err)
	}
	bps := r.cfg.LinkBps
	if bps <= 0 {
		bps = 1_000_000_000 // effectively unpaced; still classful
	}
	burst := r.cfg.Batch
	p := &port{
		key: key, to: to, bps: r.cfg.LinkBps, hop: trace.NoHop,
		// The Fig. 2 scheduler for this neighbour.
		q:       sched.NewTVA(sched.TVAConfig{LinkBps: bps, RequestFraction: r.cfg.RequestFraction}),
		tx:      tx,
		pkts:    make([]*packet.Packet, burst),
		backing: make([][]byte, burst),
		out:     make([][]byte, 0, burst),
		txs:     make([]trace.Span, 0, burst),
	}
	for i := range p.backing {
		p.backing[i] = make([]byte, 0, 2048)
	}
	// Drop attribution feeds the same per-sender tables; the collector
	// is owned by this port's scheduler under p.mu.
	p.q.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
	p.cond = sync.NewCond(&p.mu)
	p.refuse = func(pkt *packet.Packet) {
		p.Dropped.Add(1)
		packet.Release(pkt)
	}
	if r.cfg.Spans != nil {
		p.spans = r.cfg.Spans
		p.hop = r.cfg.Spans.RegisterHop(r.Addr().String() + "->" + key)
	}
	r.ports[key] = p
	r.wg.Add(1)
	go r.portLoop(p)
	return p, nil
}

// AddRoute installs a route: packets for dst leave toward the
// neighbour at via.
func (r *Router) AddRoute(dst packet.Addr, via string) error {
	p, err := r.portFor(via)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.routes[dst] = p
	r.mu.Unlock()
	return nil
}

// SetDefaultRoute installs the default next hop.
func (r *Router) SetDefaultRoute(via string) error {
	p, err := r.portFor(via)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.def = p
	r.mu.Unlock()
	return nil
}

// Core exposes the router's protocol engine — shard replica 0; every
// replica shares its Authority — for diagnostics endpoints. Its
// counters are owned by that replica's worker, so reads are
// approximate while traffic flows; CoreStats is the locked aggregate.
func (r *Router) Core() *core.Router { return r.shards.workers[0].core }

// SchedDrops sums per-reason drop counts across all port schedulers.
func (r *Router) SchedDrops() telemetry.DropCounters {
	var total telemetry.DropCounters
	r.eachPort(func(p *port) { total.Merge(p.q.DropReasons()) })
	return total
}

// PortGauges is one neighbour link's scheduler occupancy snapshot.
type PortGauges struct {
	Neighbor      string
	RequestPkts   int
	RegularPkts   int
	LegacyPkts    int
	RegularQueues int
	TokenBytes    float64
	Sent, Dropped uint64
	// TxFailed counts dequeued packets that never became a datagram on
	// the wire (dequeued = Sent + TxFailed); TxMsgs the kernel messages
	// that carried the Sent ones (fewer than Sent where runs coalesce).
	TxFailed, TxMsgs uint64
}

// Gauges snapshots every port's scheduler occupancy, sorted by
// neighbour address for stable output. Diagnostics only — it takes
// each port's lock briefly.
func (r *Router) Gauges() []PortGauges {
	now := r.clock.Now()
	var out []PortGauges
	r.eachPort(func(p *port) {
		out = append(out, PortGauges{
			Neighbor:      p.key,
			RequestPkts:   p.q.RequestBacklog(),
			RegularPkts:   p.q.RegularBacklog(),
			LegacyPkts:    p.q.LegacyBacklog(),
			RegularQueues: p.q.RegularQueues(),
			TokenBytes:    p.q.TokenLevel(now),
			Sent:          p.Sent.Load(),
			Dropped:       p.Dropped.Load(),
			TxFailed:      p.TxFailed.Load(),
			TxMsgs:        p.TxMsgs.Load(),
		})
	})
	return out
}

// Close shuts the router down and waits for its goroutines.
func (r *Router) Close() error {
	select {
	case <-r.closed:
		return nil
	default:
	}
	close(r.closed)
	err := r.conn.Close()
	r.eachPort(func(p *port) { p.cond.Broadcast() })
	r.wg.Wait()
	// After wg.Wait the receive goroutine is gone, so no more jobs can
	// be scattered; the shard workers can drain and exit.
	r.shards.close()
	return err
}

// receiveLoop is the ingress half of the data path, one burst at a
// time: rx.recvBatch → decode → shards.process → dispatch. It is the
// only goroutine that reads the socket and the only one that enqueues
// onto ports, so packets leave toward each port in arrival order.
func (r *Router) receiveLoop() {
	defer r.wg.Done()
	// One burst and one same-port run scratch for the goroutine's
	// lifetime: every slot is handed on or released before the next
	// read, so neither needs the batch pool.
	b := packet.NewBatch(r.cfg.Batch)
	run := packet.NewBatch(r.cfg.Batch)
	for {
		n, err := r.rx.recvBatch()
		if err != nil {
			select {
			case <-r.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		r.decode(n, b)
		if b.Len() == 0 {
			continue
		}
		r.RxBursts.Add(1)
		r.RxBurstPkts.Add(uint64(b.Len()))
		now := r.clock.Now()
		r.shards.process(b, now)
		r.dispatch(b, run, now)
		b.Reset()
	}
}

// decode is the parse stage: the n datagrams of the last read become
// pooled packets in b, minus the malformed and the TTL-expired (each
// counted). Receive goroutine only; touches no lock.
func (r *Router) decode(n int, b *packet.Batch) {
	r.Received.Add(uint64(n))
	for i := 0; i < n; i++ {
		pkt := packet.AcquirePacket()
		if err := pkt.UnmarshalReuse(r.rx.buf(i)); err != nil {
			r.Malformed.Add(1)
			packet.Release(pkt)
			continue
		}
		if pkt.TTL == 0 {
			r.Expired.Add(1)
			packet.Release(pkt)
			continue
		}
		pkt.TTL--
		if r.cfg.Spans != nil {
			// Fresh ID per router: trace IDs are in-memory only, never
			// on the wire, so each router contributes its own per-hop
			// span fragment to the shared recorder.
			pkt.TraceID = r.cfg.Spans.NextID()
		}
		b.Append(pkt)
	}
}

// dispatch is the route + schedule stage: the classified burst leaves
// toward its ports in arrival order, flushing maximal same-port runs
// so each run costs one port lock and one scheduler batch call. Every
// slot of b is consumed (enqueued, or released as unroutable). Receive
// goroutine only; takes r.mu per lookup and then the run's port.mu,
// never both at once.
func (r *Router) dispatch(b, run *packet.Batch, now tvatime.Time) {
	var cur *port
	for i, pkt := range b.Pkts() {
		out := r.route(pkt.Dst)
		if out == nil {
			r.Unroutable.Add(1)
			packet.Release(b.Take(i))
			continue
		}
		r.Forwarded.Add(1)
		if out != cur {
			if cur != nil {
				cur.enqueue(run, now)
			}
			cur = out
		}
		run.Append(b.Take(i))
	}
	if cur != nil {
		cur.enqueue(run, now)
	}
}

func (r *Router) route(dst packet.Addr) *port {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.routes[dst]; ok {
		return p
	}
	return r.def
}

// enqueue admits one same-port run with a single scheduler crossing
// under p.mu, releasing whatever the scheduler refuses. The run batch
// is consumed (reset).
func (p *port) enqueue(run *packet.Batch, now tvatime.Time) {
	for _, pkt := range run.Pkts() {
		pkt.EnqueuedAt = now
		p.span(pkt, trace.EdgeEnqueue, now)
	}
	p.mu.Lock()
	if p.q.EnqueueBatch(run, now, p.refuse) > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// portLoop is the egress half of the data path for one neighbour, one
// burst at a time: dequeue → encode → transmit → pace. Only the
// dequeue stage takes p.mu; the rest works on the port goroutine's own
// burst state.
func (r *Router) portLoop(p *port) {
	defer r.wg.Done()
	for {
		n := r.dequeue(p)
		if n == 0 {
			return
		}
		wireBytes := r.encode(p, n)
		r.transmit(p)
		p.pace(r.clock, wireBytes)
	}
}

// dequeue blocks until the port's scheduler yields a burst into
// p.pkts and returns its length, or 0 once the router is closed. Holds
// p.mu around DequeueBatch and the condition wait.
func (r *Router) dequeue(p *port) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		select {
		case <-r.closed:
			return 0
		default:
		}
		n, retry := p.q.DequeueBatch(p.pkts, r.clock.Now())
		if n > 0 {
			return n
		}
		if retry > 0 {
			// Rate-limited backlog: wake up when tokens accrue.
			d := time.Duration(retry - r.clock.Now())
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer := time.AfterFunc(d, func() {
				p.mu.Lock()
				p.cond.Broadcast()
				p.mu.Unlock()
			})
			p.cond.Wait()
			timer.Stop()
			continue
		}
		p.cond.Wait()
	}
}

// encode marshals the n dequeued packets of p.pkts into p.out,
// observing each one's queue wait and recording its dequeue span, and
// releases them (one that will not marshal counts as TxFailed); it
// returns the burst's wire bytes for pacing. Port goroutine only; no
// lock.
func (r *Router) encode(p *port, n int) (wireBytes int) {
	now := r.clock.Now()
	p.out = p.out[:0]
	p.txs = p.txs[:0]
	for i := 0; i < n; i++ {
		pkt := p.pkts[i]
		p.pkts[i] = nil
		if pkt.EnqueuedAt > 0 {
			if w := now.Sub(pkt.EnqueuedAt); w >= 0 {
				r.observeWait(p, w)
			}
		}
		p.span(pkt, trace.EdgeDequeue, now)
		data, err := pkt.Marshal(p.backing[i][:0])
		if err == nil && p.spans != nil && pkt.TraceID != 0 {
			// Built now, while the packet is still ours; transmit stamps
			// the send time.
			p.txs = append(p.txs, p.spanAt(pkt, trace.EdgeTx, 0))
		}
		packet.Release(pkt)
		if err != nil {
			p.TxFailed.Add(1)
			continue
		}
		p.backing[i] = data[:0]
		p.out = append(p.out, data)
		wireBytes += len(data)
	}
	return wireBytes
}

// transmit hands p.out to the socket in one burst — one kernel message
// per run of equal-length datagrams — and stamps the pending tx spans
// with the send time. A datagram the kernel rejects costs only itself
// (TxFailed); the error is not otherwise actionable here. Port
// goroutine only; no lock (the socket is shared, the kernel serializes
// sends).
func (r *Router) transmit(p *port) {
	if len(p.out) == 0 {
		return
	}
	sent, msgs, _ := p.tx.sendBatch(p.out, p.to)
	p.Sent.Add(uint64(sent))
	p.TxFailed.Add(uint64(len(p.out) - sent))
	p.TxMsgs.Add(uint64(msgs))
	p.TxBursts.Add(1)
	p.TxBurstPkts.Add(uint64(len(p.out)))
	if len(p.txs) > 0 {
		done := r.clock.Now()
		for i := range p.txs {
			p.txs[i].Time = done
			p.spans.Record(p.txs[i])
		}
	}
}
