// Link impairment models: the fault-injection substrate for the
// recovery experiments (DESIGN.md §10). Each impairment is attached to
// one link direction and owns a deterministic PRNG seeded per link, so
// a run with impairments is still a pure function of its seed and the
// determinism analyzer's contract holds. Composable faults:
//
//   - random loss: each packet leaving the wire is dropped with
//     LossProb (reason link-loss);
//   - duplication: with DupProb the packet is delivered twice (the
//     duplicate is a deep clone, so pool ownership stays single);
//   - reordering via jitter: each delivery is delayed by an extra
//     uniform [0, Jitter) on top of the propagation delay, so packets
//     launched close together can arrive out of order;
//   - scheduled down/up windows (Iface.SetDown / ScheduleOutage):
//     while down the interface stops transmitting (its queue builds)
//     and anything already in flight is cut at delivery time (reason
//     link-down).
//
// All fault losses are reason-attributed into Iface.FaultDrops and
// counted in IfaceStats.LostPkts — never into the scheduler's enqueue
// drop counters, so the PR-2 invariant (per-reason enqueue drops sum
// to IfaceStats.DroppedPkts) is untouched by fault injection.
package netsim

import (
	"math/rand"

	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// ImpairConfig parameterizes one link direction's impairments.
type ImpairConfig struct {
	// Seed keys the impairment's private PRNG. Derive it from the run
	// seed and a per-link salt so links fault independently but
	// reproducibly.
	Seed int64
	// LossProb is the independent per-packet wire-loss probability.
	LossProb float64
	// DupProb is the independent per-packet duplication probability.
	DupProb float64
	// Jitter adds uniform [0, Jitter) to each packet's propagation
	// delay; deliveries with overlapping windows reorder.
	Jitter tvatime.Duration
	// DropIf, when set, deterministically drops matching packets
	// (attributed as link-loss). Tests use it to kill a specific
	// packet kind — e.g. every renewal — instead of rolling dice.
	DropIf func(pkt *packet.Packet) bool
}

// Impairment is the attached state: config plus the per-link PRNG.
type Impairment struct {
	cfg ImpairConfig
	rng *rand.Rand

	// Duplicated counts packets delivered twice.
	Duplicated uint64
}

// SetImpairment attaches (or, with a zero cfg, effectively clears)
// impairments on this link direction. It returns the Impairment for
// inspection.
func (i *Iface) SetImpairment(cfg ImpairConfig) *Impairment {
	imp := &Impairment{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	i.settle()
	i.impair = imp
	i.resumeTx()
	return imp
}

// lose reports whether this packet dies on the wire.
func (imp *Impairment) lose(pkt *packet.Packet) bool {
	if imp.cfg.DropIf != nil && imp.cfg.DropIf(pkt) {
		return true
	}
	return imp.cfg.LossProb > 0 && imp.rng.Float64() < imp.cfg.LossProb
}

// extraDelay returns this packet's jitter draw.
func (imp *Impairment) extraDelay() tvatime.Duration {
	if imp.cfg.Jitter <= 0 {
		return 0
	}
	return tvatime.Duration(imp.rng.Int63n(int64(imp.cfg.Jitter)))
}

// SetDown changes the interface's up/down state. Going down stops
// transmission (the output queue keeps building and drains on the
// next up); packets already in flight are cut at delivery time.
// Coming up restarts the transmit loop.
func (i *Iface) SetDown(down bool) {
	if i.down == down {
		return
	}
	i.settle()
	i.down = down
	if down {
		i.resumeTx()
	} else if i.Sched.Len() > 0 {
		i.kick()
	}
}

// ScheduleOutage arms one down/up window on this link direction:
// down at start, back up at start+dur.
func (i *Iface) ScheduleOutage(start tvatime.Time, dur tvatime.Duration) {
	sim := i.Node.Sim
	sim.At(start, func() { i.SetDown(true) })
	sim.At(start.Add(dur), func() { i.SetDown(false) })
}

// fault attributes a wire/fault loss of pkt to reason, traces it, and
// returns the packet to the pool. This is the single accounting point
// for every non-enqueue discard on an interface.
func (i *Iface) fault(pkt *packet.Packet, reason telemetry.DropReason) {
	i.FaultDrops.Inc(reason)
	i.stats.LostPkts++
	i.stats.LostBytes += uint64(pkt.Size)
	if sim := i.Node.Sim; sim.Spans != nil && pkt.TraceID != 0 {
		sp := i.span(pkt, trace.EdgeDrop)
		sp.Reason = reason
		sim.Spans.Record(sp)
	}
	packet.Release(pkt)
}

// Flush drains this interface's output queue through the scheduler's
// pool-clean flush path, attributing every queued packet (including
// rate-limiter holdovers) to reason and releasing it. It returns the
// number of packets flushed.
func (i *Iface) Flush(reason telemetry.DropReason) int {
	n := 0
	i.Sched.Flush(func(pkt *packet.Packet) {
		n++
		i.fault(pkt, reason)
	})
	return n
}

// launch moves a packet that finished serialization onto the wire:
// down-windows and impairments apply here, then propagation delay
// (plus jitter) carries it to the peer. Delivery re-checks the down
// state so an outage cuts packets already in flight.
func (i *Iface) launch(pkt *packet.Packet) {
	if i.down {
		i.fault(pkt, telemetry.DropLinkDown)
		return
	}
	imp := i.impair
	if imp == nil {
		i.scheduleDeliver(pkt)
		return
	}
	if imp.lose(pkt) {
		i.fault(pkt, telemetry.DropLinkLoss)
		return
	}
	// An impaired link's arrivals queue as new events, in launch order:
	// a duplicate and its original may arrive at the same instant.
	sim := i.Node.Sim
	if imp.cfg.DupProb > 0 && imp.rng.Float64() < imp.cfg.DupProb {
		imp.Duplicated++
		sim.schedule(sim.now.Add(i.Delay+imp.extraDelay()), payload{kind: evDeliver, iface: i, pkt: pkt.Clone()})
	}
	sim.schedule(sim.now.Add(i.Delay+imp.extraDelay()), payload{kind: evDeliver, iface: i, pkt: pkt})
}

// scheduleDeliver arms pkt's arrival one propagation delay from its
// transmit-done, the running event. The arrival takes the
// transmit-done's seq, as a deferred transmission's does (txNext).
//
//tva:hotpath
func (i *Iface) scheduleDeliver(pkt *packet.Packet) {
	sim := i.Node.Sim
	sim.scheduleSeq(sim.now.Add(i.Delay), sim.cur, payload{kind: evDeliver, iface: i, pkt: pkt})
}

// arrive ends pkt's propagation: an interface that went down in the
// meantime cuts it, otherwise the peer's handler receives it.
func (i *Iface) arrive(pkt *packet.Packet) {
	if i.down {
		i.fault(pkt, telemetry.DropLinkDown)
		return
	}
	i.deliver(pkt)
}
