// Package netsim is a packet-level discrete-event network simulator,
// the substrate the paper's ns-2 evaluation runs on (DESIGN.md §2).
//
// A simulation is a set of nodes joined by full-duplex links. Each
// direction of a link has a bandwidth, a propagation delay, and its own
// output scheduler (any sched.Scheduler), so TVA/SIFF/drop-tail routers
// differ only in the scheduler attached to each link direction and the
// node's packet handler. Packets occupy the link for size*8/bandwidth
// and arrive delay later, which reproduces exactly the queueing
// behaviour the paper's figures depend on.
//
// An interface drives its scheduler through the same burst calls the
// overlay's paced ports use, one packet wide: Send enqueues a batch of
// one and the transmit loop dequeues into a one-slot array, so both
// planes run the same queue code.
//
// A transmission normally ends at a transmit-done event, which counts
// the packet as sent, puts it on the wire and serves the queue again.
// It ends at its delivery instead when nothing needs that event: the
// packet left its queue empty, the link has a propagation delay and no
// impairment, and no flight recorder is attached. The arrival is then
// scheduled at the dequeue, and the transmit-done is settled when the
// link is next read or sent on (deferredTx), in the order the event
// would have had. A flood packet over an idle access link so costs two
// events, its sender's tick and its arrival, instead of three.
package netsim

import (
	"fmt"
	"math/rand"

	"tva/internal/metrics"
	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// Sim is the event loop. It is single-goroutine: handlers run inline
// from Run.
type Sim struct {
	now    tvatime.Time
	queue  eventQueue
	slab   []payload // what each pending event does, indexed by event.slot
	free   []uint32  // retired slab slots
	seq    uint64
	cur    uint64 // the running event's seq; all ones once Run has run everything due by now
	rng    *rand.Rand
	ifaces []*Iface // every link direction, for Teardown

	// Spans, if set, is the flight recorder every lifecycle edge in
	// this simulation reports to. Attach it before building the
	// topology: Connect registers each interface as a trace hop, and
	// Node.Send assigns trace IDs to injected packets. Nil disables
	// tracing (a single pointer check per edge).
	Spans *trace.Recorder

	// TxBursts counts transmit-loop visits that moved a packet. Each
	// moves exactly one, so the burst fill gauge reads 1 once any has.
	TxBursts uint64

	// Events counts the events run: the simulator's unit of work.
	Events uint64
}

// New returns a simulator with a deterministic RNG.
func New(seed int64) *Sim {
	s := &Sim{rng: rand.New(rand.NewSource(seed))}
	s.queue.init()
	return s
}

// Now implements tvatime.Clock.
func (s *Sim) Now() tvatime.Time { return s.now }

// Rand returns the simulation's RNG (deterministic per seed).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// evKind selects what Step does with an event.
type evKind uint8

const (
	evFree     evKind = iota // retired slab slot
	evFunc                   // timer or ticker: run fn
	evTxDone                 // pkt finished serializing on iface
	evTxResume               // iface's deferred transmission finished serializing
	evDeliver                // pkt finished propagating from iface
	evRetry                  // iface's rate-limited scheduler may serve again
)

// payload is what a pending event does. The per-packet events name
// their interface and packet instead of closing over them, so
// scheduling one allocates nothing; fn is for timers and tickers.
type payload struct {
	kind  evKind
	iface *Iface
	pkt   *packet.Packet
	fn    func()
}

// schedule queues p at absolute time t (>= now), after every event
// already scheduled for t.
//
//tva:hotpath
func (s *Sim) schedule(t tvatime.Time, p payload) {
	s.seq++
	s.scheduleSeq(t, s.seq, p)
}

// scheduleSeq queues p at absolute time t (>= now) in the place seq
// gives it among t's events, reusing a retired slab slot when there
// is one, and returns the slot.
//
//tva:hotpath
func (s *Sim) scheduleSeq(t tvatime.Time, seq uint64, p payload) uint32 {
	if t < s.now {
		t = s.now
	}
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[slot] = p
	} else {
		slot = uint32(len(s.slab))
		s.slab = append(s.slab, p)
	}
	s.queue.push(event{at: t, seq: seq, slot: slot})
	return slot
}

// At schedules fn at absolute time t (>= now).
func (s *Sim) At(t tvatime.Time, fn func()) { s.schedule(t, payload{kind: evFunc, fn: fn}) }

// After schedules fn d from now.
func (s *Sim) After(d tvatime.Duration, fn func()) { s.At(s.now.Add(d), fn) }

// Every schedules fn every period until the returned stop function is
// called. A stopped ticker never re-arms: at most one already-pending
// (now inert) event remains in the queue, so long sweeps do not
// accumulate live periodic events past the span they need them for.
func (s *Sim) Every(period tvatime.Duration, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		s.After(period, tick)
	}
	s.After(period, tick)
	return func() { stopped = true }
}

const endOfTime = tvatime.Time(1<<63 - 1)

// Step runs the earliest event; it reports false when no events remain.
//
//tva:hotpath
func (s *Sim) Step() bool { return s.step(endOfTime) }

// step runs the earliest event if it is due at or before until. The
// event's slab slot is retired before its handler runs, so the handler
// may schedule into it.
//
//tva:hotpath
func (s *Sim) step(until tvatime.Time) bool {
	ev, ok := s.queue.pop(until)
	if !ok {
		return false
	}
	s.now, s.cur = ev.at, ev.seq
	s.Events++
	p := s.slab[ev.slot]
	s.slab[ev.slot] = payload{}
	s.free = append(s.free, ev.slot)
	switch p.kind {
	case evFunc:
		p.fn()
	case evTxDone:
		p.iface.txComplete(p.pkt)
		p.iface.txNext()
	case evTxResume:
		p.iface.txResume()
	case evDeliver:
		p.iface.arrive(p.pkt)
	case evRetry:
		p.iface.retry()
	}
	return true
}

// Run executes events until the queue empties or the clock passes
// until. Events scheduled beyond until remain pending.
func (s *Sim) Run(until tvatime.Time) {
	for s.step(until) {
	}
	if s.now <= until {
		// Every event due by until has run, so every deferred
		// transmit-done due by then is over too (settle).
		s.now, s.cur = until, ^uint64(0)
	}
}

// Teardown ends the simulation and returns every packet it still owns
// to the pool: those riding pending transmit and delivery events, and
// those queued in interface schedulers (flushed uncounted, as
// sched.Scheduler's Flush specifies). All pending events are
// discarded; the Sim must not be run afterwards. Call it once
// everything the run is asked to report has been read.
func (s *Sim) Teardown() {
	for i := range s.slab {
		packet.Release(s.slab[i].pkt)
	}
	s.slab, s.free, s.queue = nil, nil, eventQueue{}
	for _, i := range s.ifaces {
		i.Sched.Flush(packet.Release)
	}
}

// TxBurstFill returns the mean packets moved per transmit-loop visit:
// 0 before the first transmission, 1 after. Telemetry gauge, shared by
// name with the overlay's send-burst fill.
func (s *Sim) TxBurstFill() float64 {
	if s.TxBursts == 0 {
		return 0
	}
	return 1
}

// Handler processes packets arriving at a node. in is the interface
// the packet arrived on (nil for locally originated deliveries).
type Handler interface {
	Receive(pkt *packet.Packet, in *Iface)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(pkt *packet.Packet, in *Iface)

// Receive implements Handler.
func (f HandlerFunc) Receive(pkt *packet.Packet, in *Iface) { f(pkt, in) }

// Node is a host or router.
type Node struct {
	Sim     *Sim
	Name    string
	Handler Handler

	ifaces []*Iface
	routes map[packet.Addr]*Iface
	def    *Iface
}

// NewNode creates a node attached to the simulation.
func (s *Sim) NewNode(name string) *Node {
	return &Node{Sim: s, Name: name, routes: make(map[packet.Addr]*Iface)}
}

// Ifaces returns the node's interfaces in attachment order.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

// AddRoute installs a host route for dst via the given interface.
func (n *Node) AddRoute(dst packet.Addr, via *Iface) { n.routes[dst] = via }

// SetDefault installs the default route.
func (n *Node) SetDefault(via *Iface) { n.def = via }

// Route returns the output interface for dst, or nil if unroutable.
func (n *Node) Route(dst packet.Addr) *Iface {
	if i, ok := n.routes[dst]; ok {
		return i
	}
	return n.def
}

// Send routes and transmits a locally originated or forwarded packet.
// Unroutable packets are silently dropped (and returned to the packet
// pool if pooled).
//
// With a flight recorder attached, Send is where a packet enters the
// traced world: the first routable Send assigns its monotonic trace ID
// and emits the send edge. Forwarded packets already carry an ID and
// get no second send edge.
func (n *Node) Send(pkt *packet.Packet) {
	out := n.Route(pkt.Dst)
	if out == nil {
		packet.Release(pkt)
		return
	}
	if rec := n.Sim.Spans; rec != nil && pkt.TraceID == 0 {
		pkt.TraceID = rec.NextID()
		sp := n.Sim.SpanFor(pkt, trace.EdgeSend)
		sp.Hop = out.Hop
		rec.Record(sp)
	}
	out.Send(pkt)
}

// SpanFor builds the base span for pkt at the current simulation time,
// with Hop set to trace.NoHop; callers fill in location fields and
// pass it to Spans.Record.
func (s *Sim) SpanFor(pkt *packet.Packet, edge trace.Edge) trace.Span {
	sp := trace.Span{
		ID:    pkt.TraceID,
		Time:  s.now,
		Src:   uint32(pkt.Src),
		Dst:   uint32(pkt.Dst),
		Size:  uint32(pkt.Size),
		Hop:   trace.NoHop,
		Edge:  edge,
		Class: uint8(pkt.Class),
	}
	if pkt.Hdr != nil {
		sp.Kind = uint8(pkt.Hdr.Kind) + 1
	}
	return sp
}

// String implements fmt.Stringer.
func (n *Node) String() string { return n.Name }

// IfaceStats counts traffic through one link direction. DroppedPkts
// counts enqueue (queue-full) drops only; LostPkts counts fault losses
// — wire loss, down-window cuts, and restart flushes — which are
// attributed by reason in Iface.FaultDrops.
type IfaceStats struct {
	EnqueuedPkts  uint64
	EnqueuedBytes uint64
	SentPkts      uint64
	SentBytes     uint64
	DroppedPkts   uint64
	DroppedBytes  uint64
	LostPkts      uint64
	LostBytes     uint64
}

// Iface is one direction of a link: the sending side's output queue
// plus the wire to the peer.
type Iface struct {
	Node  *Node
	Peer  *Iface
	Index int // index within Node.ifaces

	Bps   int64
	Delay tvatime.Duration
	Sched sched.Scheduler

	stats IfaceStats // read through Stats, which settles a deferred transmission first

	// OnDrop, if set, observes packets dropped at enqueue (pushback's
	// drop-history hook).
	OnDrop func(pkt *packet.Packet)

	// QueueDelay, if set, observes each dequeued packet's time in this
	// output queue (virtual time between Enqueue and Dequeue, in
	// nanoseconds). The same sketch feeds the run's queue-delay
	// quantiles and, with metrics on, the live tva_queue_wait_ns
	// series. A single nil check on the dequeue path; nil costs
	// nothing.
	QueueDelay *metrics.Sketch

	// Hop is this interface's identity in the span flight recorder
	// (registered by Connect when Sim.Spans is attached), or
	// trace.NoHop when the simulation is untraced.
	Hop uint16

	// FaultDrops attributes every fault loss on this interface —
	// link-loss, link-down, router-restart — by reason (impair.go).
	FaultDrops telemetry.DropCounters

	busy         bool
	retryPending bool
	down         bool
	impair       *Impairment
	tx           deferredTx

	// The scheduler's burst operands, built once by Connect so the
	// per-packet path allocates nothing: the one-slot batch Send
	// enqueues, the slot txNext dequeues into, and the bound drop
	// callback.
	enq    *packet.Batch
	deq    [1]*packet.Packet
	dropFn func(*packet.Packet)
}

// Connect joins two nodes with a full-duplex link. bps and delay apply
// to both directions; schedAB is the output queue for a→b traffic and
// schedBA for b→a. It returns (a's iface, b's iface).
func Connect(a, b *Node, bps int64, delay tvatime.Duration, schedAB, schedBA sched.Scheduler) (*Iface, *Iface) {
	if schedAB == nil {
		schedAB = sched.NewDropTail(0)
	}
	if schedBA == nil {
		schedBA = sched.NewDropTail(0)
	}
	ia := &Iface{Node: a, Bps: bps, Delay: delay, Sched: schedAB, Index: len(a.ifaces), Hop: trace.NoHop}
	ib := &Iface{Node: b, Bps: bps, Delay: delay, Sched: schedBA, Index: len(b.ifaces), Hop: trace.NoHop}
	ia.Peer, ib.Peer = ib, ia
	for _, i := range []*Iface{ia, ib} {
		i.enq = packet.NewBatch(1)
		i.dropFn = i.dropped
	}
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	a.Sim.ifaces = append(a.Sim.ifaces, ia, ib)
	if rec := a.Sim.Spans; rec != nil {
		ia.Hop = rec.RegisterHop(ia.String())
		ib.Hop = rec.RegisterHop(ib.String())
	}
	return ia, ib
}

// Send enqueues pkt on this interface's output queue and starts
// transmission if the link is idle.
func (i *Iface) Send(pkt *packet.Packet) {
	sim := i.Node.Sim
	pkt.EnqueuedAt = sim.now
	i.enq.Append(pkt)
	if i.Sched.EnqueueBatch(i.enq, sim.now, i.dropFn) == 0 {
		return
	}
	i.stats.EnqueuedPkts++
	i.stats.EnqueuedBytes += uint64(pkt.Size)
	if sim.Spans != nil && pkt.TraceID != 0 {
		sim.Spans.Record(i.span(pkt, trace.EdgeEnqueue))
	}
	i.kick()
}

// dropped is the scheduler's drop callback for Send: enqueue-drop
// accounting, the OnDrop hook, the drop span tagged with the
// scheduler's reason, and the release. It must not call Send: the
// scheduler is mid-enqueue when it runs.
func (i *Iface) dropped(pkt *packet.Packet) {
	i.stats.DroppedPkts++
	i.stats.DroppedBytes += uint64(pkt.Size)
	if i.OnDrop != nil {
		i.OnDrop(pkt)
	}
	if sim := i.Node.Sim; sim.Spans != nil && pkt.TraceID != 0 {
		sp := i.span(pkt, trace.EdgeDrop)
		sp.Reason = i.Sched.LastDropReason()
		sim.Spans.Record(sp)
	}
	packet.Release(pkt)
}

// span builds the flight-recorder span for pkt on this interface.
// Request-class enqueues carry the packet's most recent path id, the
// key of the fair queue it joined.
func (i *Iface) span(pkt *packet.Packet, edge trace.Edge) trace.Span {
	sp := i.Node.Sim.SpanFor(pkt, edge)
	sp.Hop = i.Hop
	if pkt.Class == packet.ClassRequest && pkt.Hdr != nil {
		if ids := pkt.Hdr.Request.PathIDs; len(ids) > 0 {
			sp.PathID = uint16(ids[len(ids)-1])
		}
	}
	return sp
}

// kick starts the transmit loop if idle. A deferred transmission
// still serializing gets its transmit-done back, to serve what was
// just queued behind it.
func (i *Iface) kick() {
	i.settle()
	if i.busy {
		i.resumeTx()
		return
	}
	i.busy = true
	i.txNext()
}

// retry is the wake-up txNext arms when a rate-limited scheduler holds
// packets it may not serve yet.
func (i *Iface) retry() {
	i.retryPending = false
	i.settle()
	if !i.busy && i.Sched.Len() > 0 {
		i.kick()
	}
}

// txTime returns the serialization delay of size bytes at the link rate.
func (i *Iface) txTime(size int) tvatime.Duration {
	if i.Bps <= 0 {
		return 0
	}
	return tvatime.Duration(int64(size) * 8 * int64(tvatime.Second) / i.Bps)
}

// txNext serves the output queue: it dequeues one packet and arms its
// transmission-complete event, or idles the link — arming a retry when
// a rate-limited class is the only backlog.
//
// A packet that leaves the queue empty on a plain link (a propagation
// delay, no impairment, no flight recorder) gets no transmit-done
// event: its delivery is scheduled at once and the transmit-done is
// deferred (deferredTx). The seq the transmit-done would have taken
// is reserved either way, and the packet's delivery takes it too, so
// the event order does not depend on which path a packet took.
// Without a delay the delivery would share its (time, seq) with a
// re-armed transmit-done, which must run first.
//
//tva:hotpath
func (i *Iface) txNext() {
	sim := i.Node.Sim
	if i.down {
		// The interface stops serving its queue while down;
		// SetDown(false) kicks the loop back into motion.
		i.busy = false
		return
	}
	n, retry := i.Sched.DequeueBatch(i.deq[:], sim.now)
	if n == 0 {
		i.busy = false
		if retry > sim.now && !i.retryPending {
			i.retryPending = true
			sim.schedule(retry, payload{kind: evRetry, iface: i})
		}
		return
	}
	pkt := i.deq[0]
	i.deq[0] = nil
	sim.TxBursts++
	if i.QueueDelay != nil {
		i.QueueDelay.Observe(int64(sim.now.Sub(pkt.EnqueuedAt)))
	}
	if sim.Spans != nil && pkt.TraceID != 0 {
		sim.Spans.Record(i.span(pkt, trace.EdgeDequeue))
	}
	sim.seq++
	done := sim.now.Add(i.txTime(pkt.Size))
	if i.Delay > 0 && i.impair == nil && sim.Spans == nil && i.Sched.Len() == 0 {
		slot := sim.scheduleSeq(done.Add(i.Delay), sim.seq, payload{kind: evDeliver, iface: i, pkt: pkt})
		i.tx = deferredTx{done: done, seq: sim.seq, size: pkt.Size, slot: slot, pending: true}
		return
	}
	sim.scheduleSeq(done, sim.seq, payload{kind: evTxDone, iface: i, pkt: pkt})
}

// txComplete finishes one packet's transmission: accounting, the tx
// span, and the move onto the wire.
func (i *Iface) txComplete(pkt *packet.Packet) {
	sim := i.Node.Sim
	i.stats.SentPkts++
	i.stats.SentBytes += uint64(pkt.Size)
	if sim.Spans != nil && pkt.TraceID != 0 {
		sim.Spans.Record(i.span(pkt, trace.EdgeTx))
	}
	i.launch(pkt)
}

// deferredTx is a transmission txNext scheduled the delivery of
// directly. Its transmit-done is the event at (done, seq) it never
// queued: the transmission is over once the simulation has passed
// that point, and whatever reads the link first books it then
// (settle). A Send before done re-arms the transmit-done as an
// evTxResume at that very point, to serve the new packet; so do an
// outage or an impairment beginning before done, which decide the
// packet's fate at its transmit-done.
type deferredTx struct {
	done    tvatime.Time
	seq     uint64
	size    int
	slot    uint32 // the delivery event's slab slot
	pending bool   // not yet booked
	resumed bool   // an evTxResume is armed at (done, seq)
}

// settle books a deferred transmission that is over and frees the
// link, leaving what its transmit-done would have. It is over once
// that event would have run: the running event comes after (done,
// seq), or Run has returned with the clock at or past done. Every
// reader of the link's state calls settle first.
func (i *Iface) settle() {
	sim := i.Node.Sim
	if i.tx.pending && !i.tx.resumed &&
		(sim.now > i.tx.done || sim.now == i.tx.done && sim.cur > i.tx.seq) {
		i.bookTx()
		i.busy = false
	}
}

// bookTx counts the deferred transmission as sent.
func (i *Iface) bookTx() {
	i.tx.pending = false
	i.stats.SentPkts++
	i.stats.SentBytes += uint64(i.tx.size)
}

// resumeTx arms the deferred transmission's transmit-done, if it has
// one still to come.
func (i *Iface) resumeTx() {
	if i.tx.pending && !i.tx.resumed {
		i.tx.resumed = true
		i.Node.Sim.scheduleSeq(i.tx.done, i.tx.seq, payload{kind: evTxResume, iface: i})
	}
}

// txResume is a deferred transmission's transmit-done. Over a link
// that went down or took an impairment since the dequeue, the packet
// leaves its delivery event (which then pops inert) and goes through
// launch, as at any transmit-done.
func (i *Iface) txResume() {
	i.tx.resumed = false
	i.bookTx()
	if i.down || i.impair != nil {
		ev := &i.Node.Sim.slab[i.tx.slot]
		pkt := ev.pkt
		*ev = payload{}
		i.launch(pkt)
	}
	i.txNext()
}

// Stats returns the link direction's counters, with any transmission
// that has finished serializing counted as sent.
func (i *Iface) Stats() IfaceStats {
	i.settle()
	return i.stats
}

func (i *Iface) deliver(pkt *packet.Packet) {
	peer := i.Peer
	if peer.Node.Handler != nil {
		peer.Node.Handler.Receive(pkt, peer)
	}
}

// String implements fmt.Stringer.
func (i *Iface) String() string {
	return fmt.Sprintf("%s#%d->%s", i.Node.Name, i.Index, i.Peer.Node.Name)
}

// Utilization returns sent bytes as a fraction of what the link could
// have carried over the elapsed duration.
func (i *Iface) Utilization(elapsed tvatime.Duration) float64 {
	if elapsed <= 0 || i.Bps <= 0 {
		return 0
	}
	capacity := float64(i.Bps) / 8 * elapsed.Seconds()
	return float64(i.Stats().SentBytes) / capacity
}
