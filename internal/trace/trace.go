// Package trace is the causal packet-lifecycle tracing subsystem: a
// span-based flight recorder that follows a packet end-to-end through
// the simulator. Every injected packet gets a cheap monotonic trace ID
// (carried in the pooled packet.Packet, wiped by the pool reset), and
// each lifecycle edge — host send, queue enqueue/dequeue, capability
// verdict, demotion, link transmit, drop, delivery — becomes one
// fixed-size Span in a sharded, preallocated ring. With the recorder
// attached, Record is two array stores and an increment: no
// allocations, no maps, no interface dispatch, so the forwarding hot
// path stays zero-alloc with tracing on (pinned by the hotpath
// analyzer and a bench).
//
// It is the simulator's only per-packet tracer, and the overlay's.
// The package sits below every data-path package: it imports only the
// standard library, tvatime, and telemetry (for the DropReason a drop
// or demote span carries), so netsim, core, sched, and exp can all
// depend on it without cycles.
package trace

import (
	"sort"

	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// Edge identifies which lifecycle transition a Span records.
type Edge uint8

const (
	// EdgeSend: the origin host injected the packet into the network.
	// Emitted exactly once per trace ID, when the ID is assigned.
	EdgeSend Edge = iota
	// EdgeVerdict: a router's capability check classified the packet
	// (Span.Class holds the verdict: request, regular, or legacy).
	EdgeVerdict
	// EdgeDemote: a router demoted the packet to legacy service
	// (Span.Reason holds the attributed cause, Span.Router the culprit).
	EdgeDemote
	// EdgeEnqueue: the packet entered a link's output scheduler
	// (request queues carry Span.PathID; Span.Class says which band).
	EdgeEnqueue
	// EdgeDequeue: the scheduler selected the packet for transmission.
	// Dequeue−Enqueue is the queue wait at that hop.
	EdgeDequeue
	// EdgeTx: serialization onto the wire finished. Tx−Dequeue is the
	// service (transmission) time; the next hop's first edge minus Tx
	// is the propagation time.
	EdgeTx
	// EdgeDrop: the packet died (queue overflow, impairment, flush);
	// Span.Reason carries the attributed telemetry.DropReason.
	EdgeDrop
	// EdgeDeliver: the packet reached its destination host.
	EdgeDeliver
	// EdgeHealth: the attack-onset health engine changed state. Not a
	// packet-lifecycle edge — the span carries no packet identity
	// (ID 0); Span.Kind holds the previous metrics.State + 1 and
	// Span.Class the new one, so forensics can line up "when did the
	// detector fire" against the packet timeline around it.
	EdgeHealth

	// NumEdges sizes per-edge count arrays.
	NumEdges = int(EdgeHealth) + 1
)

var edgeNames = [NumEdges]string{
	EdgeSend:    "send",
	EdgeVerdict: "verdict",
	EdgeDemote:  "demote",
	EdgeEnqueue: "enqueue",
	EdgeDequeue: "dequeue",
	EdgeTx:      "tx",
	EdgeDrop:    "drop",
	EdgeDeliver: "deliver",
	EdgeHealth:  "health",
}

// String returns the stable name used in text and JSON output.
func (e Edge) String() string {
	if int(e) < NumEdges {
		return edgeNames[e]
	}
	return "unknown"
}

// HealthStateName names a raw metrics.State byte carried in an
// EdgeHealth span (kept here so trace need not import metrics; the
// metrics package tests assert the two stay in sync).
func HealthStateName(s uint8) string {
	switch s {
	case 0:
		return "healthy"
	case 1:
		return "degraded"
	case 2:
		return "under-attack"
	case 3:
		return "recovered"
	default:
		return "unknown"
	}
}

// ClassName names a raw packet.Class byte (kept here so trace need not
// import packet).
func ClassName(c uint8) string {
	switch c {
	case 1:
		return "request"
	case 2:
		return "regular"
	default:
		return "legacy"
	}
}

// KindName names a Span.Kind byte (shim kind + 1; 0 means no shim
// header).
func KindName(k uint8) string {
	switch k {
	case 1:
		return "request"
	case 2:
		return "regular"
	case 3:
		return "nonce-only"
	case 4:
		return "renewal"
	default:
		return "legacy"
	}
}

// NoHop is the Hop value for spans that are not tied to a registered
// interface (router-internal verdicts and demotions).
const NoHop = ^uint16(0)

// Span is one lifecycle event. It is a flat fixed-size value — no
// pointers, no strings — so rings of them preallocate cleanly and the
// binary dump format is a fixed-width record.
type Span struct {
	// ID is the packet's trace ID (monotonic from 1; 0 means untraced).
	ID uint64
	// Seq is the global emission order, assigned by Record. Sorting by
	// Seq reconstructs causal order even across ring shards.
	Seq uint64
	// Time is the simulation time of the event.
	Time tvatime.Time
	// Src and Dst are the packet's addresses (raw uint32 form).
	Src, Dst uint32
	// Size is the packet's wire size in bytes.
	Size uint32
	// PathID is the request-channel path identifier for request-band
	// enqueues, else 0.
	PathID uint16
	// Hop identifies the interface (registered via RegisterHop) the
	// event happened on, or NoHop.
	Hop uint16
	// Edge is the lifecycle transition.
	Edge Edge
	// Class is the packet's service class at event time (the raw
	// packet.Class value: 0 legacy, 1 request, 2 regular).
	Class uint8
	// Kind is the shim header kind + 1 (0 means no shim header, i.e. a
	// legacy packet).
	Kind uint8
	// Reason is the attributed drop/demotion cause for EdgeDrop and
	// EdgeDemote spans.
	Reason telemetry.DropReason
	// Router is the router ID for EdgeVerdict/EdgeDemote spans.
	Router uint8
}

// shard is one preallocated ring. Spans hash to shards by trace ID, so
// a drop storm of one flood's packets can overwrite at most its own
// shards' history while other flows' spans survive.
type shard struct {
	spans []Span
	next  int
	total uint64
}

// Recorder is the flight recorder: a fixed set of preallocated span
// rings plus the monotonic trace-ID counter. It is not synchronized —
// the discrete-event simulator is single-goroutine, and the per-call
// Seq counter is what makes dumps byte-identical across same-seed
// runs.
type Recorder struct {
	shards []shard
	mask   uint64
	nextID uint64
	seq    uint64
	hops   []string
}

// DefaultCapacity is the per-recorder span budget used when callers
// pass 0: 1<<18 spans × ~56 B ≈ 14 MiB, enough for every span of a
// tvasim-scale run.
const DefaultCapacity = 1 << 18

// defaultShards keeps one flow's storm from evicting everything.
const defaultShards = 8

// NewRecorder returns a recorder holding at most capacity spans
// (rounded up to a multiple of the shard count). capacity <= 0 selects
// DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := defaultShards
	per := (capacity + n - 1) / n
	r := &Recorder{
		shards: make([]shard, n),
		mask:   uint64(n - 1),
	}
	for i := range r.shards {
		r.shards[i].spans = make([]Span, per)
	}
	return r
}

// NextID issues the next monotonic trace ID (starting at 1).
func (r *Recorder) NextID() uint64 {
	r.nextID++
	return r.nextID
}

// LastID returns the highest trace ID issued so far.
func (r *Recorder) LastID() uint64 { return r.nextID }

// Record appends one span to the ring shard owned by its trace ID,
// overwriting the shard's oldest span when full. Two array stores and
// three integer ops: safe on the forwarding hot path.
//
//tva:hotpath
func (r *Recorder) Record(sp Span) {
	r.seq++
	sp.Seq = r.seq
	sh := &r.shards[sp.ID&r.mask]
	sh.spans[sh.next] = sp
	sh.next++
	if sh.next == len(sh.spans) {
		sh.next = 0
	}
	sh.total++
}

// RegisterHop interns a hop (interface) name and returns its span Hop
// id. Called once per interface at topology-construction time, never
// on the data path.
func (r *Recorder) RegisterHop(name string) uint16 {
	r.hops = append(r.hops, name)
	return uint16(len(r.hops) - 1)
}

// Hops returns the registered hop names, indexed by Span.Hop.
func (r *Recorder) Hops() []string { return r.hops }

// HopName resolves a Span.Hop to its registered name.
func (r *Recorder) HopName(h uint16) string {
	if h == NoHop || int(h) >= len(r.hops) {
		return "-"
	}
	return r.hops[h]
}

// Recorded returns the total number of spans ever recorded, including
// those since overwritten.
func (r *Recorder) Recorded() uint64 {
	var t uint64
	for i := range r.shards {
		t += r.shards[i].total
	}
	return t
}

// Overwritten returns how many spans were evicted by ring wraparound.
func (r *Recorder) Overwritten() uint64 {
	var t uint64
	for i := range r.shards {
		sh := &r.shards[i]
		held := sh.total
		if held > uint64(len(sh.spans)) {
			t += sh.total - uint64(len(sh.spans))
		}
	}
	return t
}

// Snapshot returns every retained span in causal (Seq) order. It
// allocates and is meant for export, not the data path.
func (r *Recorder) Snapshot() []Span {
	var n int
	for i := range r.shards {
		sh := &r.shards[i]
		if sh.total < uint64(len(sh.spans)) {
			n += int(sh.total)
		} else {
			n += len(sh.spans)
		}
	}
	out := make([]Span, 0, n)
	for i := range r.shards {
		sh := &r.shards[i]
		if sh.total < uint64(len(sh.spans)) {
			out = append(out, sh.spans[:sh.next]...)
		} else {
			out = append(out, sh.spans[sh.next:]...)
			out = append(out, sh.spans[:sh.next]...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
