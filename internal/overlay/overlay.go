// Package overlay is the userspace deployment of TVA (paper §6 and
// §8): capability routers and host proxies running as ordinary
// processes over UDP, the "inline packet processing box" form of
// incremental deployment. A Router forwards TVA packets between
// UDP-addressed neighbours, running the same core.Router processing
// and Fig. 2 link scheduling as the simulator; a Host offers a
// capability-protected datagram service to applications.
//
// Concurrency model: one data path at every width. The receive
// goroutine runs rx.recvBatch → decode → core.ProcessBatch → dispatch
// on bursts of up to RouterConfig.Batch datagrams; capability state
// lives in one core.Router guarded by coreMu, which the receive
// goroutine holds around each burst and aggregate readers hold briefly.
// Each neighbour has one port goroutine running dequeue → encode →
// transmit (tx.sendBatch); port.mu guards that port's scheduler, which
// the receive goroutine fills and the port goroutine drains. This
// mirrors a router's line-card queues. A paced port's dequeue takes
// only what its emulated link has drained since the last burst, at the
// wake-ups arrivals already cause (see port.take). On linux/amd64 and
// linux/arm64 tx.sendBatch is segment-offloaded: each run of
// equal-length datagrams in a burst goes to the kernel as one
// UDP_SEGMENT message, so a port burst crosses the UDP/IP stack once
// per run instead of once per datagram (mmsg_linux.go); the burst's
// lengths and the kernel's reply decide it, there is no option.
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
	// goroutine. core is the capability engine; coreMu guards its plain
	// counters, flow cache and Flows, held around ProcessBatch by the
	// receive goroutine and by aggregate readers.
	rx     *batchConn
	coreMu sync.Mutex
	core   *core.Router

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
	// built once per port so enqueue allocates nothing per run. wake is
	// the port's one fallback timer (see dequeue), built with it.
	refuse func(*packet.Packet)
	wake   *time.Timer

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
	// next frees up (see take).
	tx      *batchConn
	pkts    []*packet.Packet
	backing [][]byte
	out     [][]byte
	txs     []trace.Span
	nextTx  tvatime.Time
}

// paceCredit bounds how far behind its emulated transmit schedule a
// port may fall before catch-up credit stops accruing: a late wake-up
// within this window is repaid by a larger burst, so the effective link
// rate converges to bps instead of drifting below it, while an idle
// link cannot bank credit for an unbounded burst later.
const paceCredit = 5 * time.Millisecond

// paceWake is how long past the link's free time a backlogged port
// with no arrivals waits before its fallback timer sends what the link
// drained. Arrivals wake the port sooner, so under load the timer does
// not fire; it stays well inside paceCredit, so no link time is lost
// when it does.
const paceWake = paceCredit / 2

// take moves the next burst into p.pkts and returns its length: up to
// Batch packets in DequeueBatch's priority order, and on a paced port
// only what the emulated link has drained since the last burst — it
// takes packets while the link is free (nextTx ≤ now), charging each
// one's serialization time, so the last one may run nextTx past now by
// one packet. With nothing taken it returns when to look again (0: the
// queue is empty and only an arrival can change that). Caller holds
// p.mu.
func (p *port) take(now tvatime.Time) (int, tvatime.Time) {
	if p.bps <= 0 {
		return p.q.DequeueBatch(p.pkts, now)
	}
	if floor := now.Add(-paceCredit); p.nextTx.Before(floor) {
		p.nextTx = floor
	}
	n := 0
	for n < len(p.pkts) && !p.nextTx.After(now) {
		k, retry := p.q.DequeueBatch(p.pkts[n:n+1], now)
		if k == 0 {
			if n == 0 {
				return 0, retry
			}
			break
		}
		p.charge(p.pkts[n].Size)
		n++
	}
	if n == 0 && p.q.Len() > 0 {
		return 0, p.nextTx.Add(paceWake)
	}
	return n, 0
}

// charge advances a paced port's emulated link schedule by the
// serialization time of wireBytes (negative to refund). Port goroutine
// only.
func (p *port) charge(wireBytes int) {
	p.nextTx = p.nextTx.Add(time.Duration(int64(wireBytes) * 8 * int64(time.Second) / p.bps))
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
	r.core = core.NewRouter(cfg.Core)
	// Hop-wait attribution: requests that opt in (WantHops) get stamped
	// with this router's current queue-wait estimate, which travels
	// back to the sender in return information (tvaping shows it per
	// hop).
	r.core.HopWait = r.waitEWMA.Load
	// Per-sender accounting: one collector per state owner, guarded by
	// that owner's existing lock (coreMu for the engine, port.mu per
	// port scheduler); FlowSnapshot merges them.
	r.core.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
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

// CoreStats returns the capability engine's processing outcomes.
func (r *Router) CoreStats() core.RouterStats {
	r.coreMu.Lock()
	defer r.coreMu.Unlock()
	return r.core.Stats
}

// CoreDemotions returns the capability engine's demotion attribution.
func (r *Router) CoreDemotions() telemetry.DropCounters {
	r.coreMu.Lock()
	defer r.coreMu.Unlock()
	return r.core.Demotions
}

// FlowCacheEntries returns the engine's live flow-cache entries.
func (r *Router) FlowCacheEntries() int {
	r.coreMu.Lock()
	defer r.coreMu.Unlock()
	return r.core.Cache().Len()
}

// FlowSnapshot merges every owner's per-sender table — the capability
// engine's and each port scheduler's drop accounting — into one top-K
// view, plus the total bytes the engine observed. MergeSamples keys
// the fold and fixes the final order (bytes descending, key
// ascending), so the result is deterministic regardless of port order
// or merge order: the same traffic always yields the same rows.
func (r *Router) FlowSnapshot() ([]flowstats.Sample, uint64) {
	r.coreMu.Lock()
	samples := r.core.Flows.AppendSamples(nil)
	total := r.core.Flows.TotalBytes()
	r.coreMu.Unlock()
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
	// Built stopped; dequeue arms it.
	p.wake = time.AfterFunc(time.Hour, func() {
		p.mu.Lock()
		p.cond.Signal()
		p.mu.Unlock()
	})
	p.wake.Stop()
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

// Core exposes the router's protocol engine for diagnostics endpoints.
// Its counters are written by the receive goroutine under coreMu, so
// reads through it are approximate while traffic flows; CoreStats is
// the locked read.
func (r *Router) Core() *core.Router { return r.core }

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
	// that carried the Sent ones (fewer than Sent where runs coalesce);
	// TxBursts the send bursts, one sendBatch call each, so roughly
	// (Sent + TxFailed) / TxBursts is datagrams per burst.
	TxFailed, TxMsgs, TxBursts uint64
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
			TxBursts:      p.TxBursts.Load(),
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
	r.eachPort(func(p *port) {
		p.wake.Stop()
		p.cond.Broadcast()
	})
	r.wg.Wait()
	// After wg.Wait the receive and port goroutines are gone; what the
	// ports still hold goes back to the pool.
	r.eachPort(func(p *port) { p.q.Flush(packet.Release) })
	return err
}

// receiveLoop is the ingress half of the data path, one burst at a
// time: rx.recvBatch → decode → core.ProcessBatch → dispatch. It is
// the only goroutine that reads the socket and the only one that
// enqueues onto ports, so packets leave toward each port in arrival
// order. The overlay's socket is one ingress, so every burst is
// processed on interface 0; deployments with several trust boundaries
// run one router process per boundary.
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
		r.coreMu.Lock()
		r.core.ProcessBatch(b, 0, now)
		r.coreMu.Unlock()
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
// burst at a time: dequeue → encode → transmit. Only the dequeue stage
// takes p.mu; the rest works on the port goroutine's own burst state.
func (r *Router) portLoop(p *port) {
	defer r.wg.Done()
	for {
		n := r.dequeue(p)
		if n == 0 {
			return
		}
		r.encode(p, n)
		r.transmit(p)
	}
}

// dequeue blocks until take yields a burst into p.pkts and returns its
// length, or 0 once the router is closed. Holds p.mu around take and
// the condition wait. The port sleeps on p.cond, which every accepted
// enqueue signals, so a paced port sends at the wake-ups its arrivals
// cause; p.wake is the fallback when a backlog waits on the link or
// the request rate limit and nothing arrives.
func (r *Router) dequeue(p *port) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		select {
		case <-r.closed:
			return 0
		default:
		}
		now := r.clock.Now()
		n, next := p.take(now)
		if n > 0 {
			return n
		}
		if next > 0 {
			// No sooner than 1 ms: the request limiter's refill wait can
			// be a few microseconds.
			p.wake.Reset(max(next.Sub(now), time.Millisecond))
		}
		p.cond.Wait()
	}
}

// encode marshals the n dequeued packets of p.pkts into p.out,
// observing each one's queue wait and recording its dequeue span, and
// releases them (one that will not marshal counts as TxFailed). take
// charged the link by pkt.Size; encode settles the charge to the bytes
// actually marshalled — they differ only for a packet that will not
// marshal or a header that re-encodes shorter than it arrived — so the
// emulated rate is exact in wire bytes. Port goroutine only; no lock.
func (r *Router) encode(p *port, n int) {
	now := r.clock.Now()
	p.out = p.out[:0]
	p.txs = p.txs[:0]
	drift := 0 // marshalled minus charged bytes
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
		drift -= pkt.Size
		packet.Release(pkt)
		if err != nil {
			p.TxFailed.Add(1)
			continue
		}
		p.backing[i] = data[:0]
		p.out = append(p.out, data)
		drift += len(data)
	}
	if p.bps > 0 {
		p.charge(drift)
	}
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
