// Package pushback implements the Pushback baseline (Mahajan et al.,
// "Controlling High Bandwidth Aggregates in the Network"; Ioannidis &
// Bellovin's router defense), as the paper uses it in §5: a router
// detects sustained congestion at an output link, identifies the
// destination-based aggregate responsible for most drops, rate-limits
// that aggregate, and recursively pushes filters to the upstream links
// that contribute most of it.
//
// The filter allocation across contributing input links is max-min
// (water-filling): links sending less than their share of the
// aggregate limit are untouched, heavy contributors are clipped. That
// is why pushback isolates well while attackers are few and heavy, and
// poorly once the flood arrives in many small pieces indistinguishable
// from legitimate traffic — the behaviour Fig. 8 shows.
//
// Inter-router propagation uses direct method calls standing in for
// pushback's control messages (DESIGN.md §2).
package pushback

import (
	"sort"

	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// The control loop's settings, as the paper's §5 runs it.
const (
	// interval is the detection/refresh period.
	interval = 500 * tvatime.Millisecond
	// dropRateThreshold triggers aggregate detection.
	dropRateThreshold = 0.05
	// targetUtilization is the fraction of the congested link's
	// capacity total arrivals are limited toward.
	targetUtilization = 0.95
	// releaseAfter is how many consecutive calm intervals release a
	// filter.
	releaseAfter = 4
	// maxDepth bounds upstream propagation.
	maxDepth = 2
)

// linkID identifies an input link (an interface index on this router).
type linkID int

type aggKey struct {
	in  linkID
	dst packet.Addr
}

// filter rate-limits one (input link, destination aggregate) pair with
// a token bucket refilled by the control loop's allocation.
type filter struct {
	rateBps float64 // bytes/sec
	tokens  float64
	last    tvatime.Time
	calm    int // consecutive intervals under the limit
}

func (f *filter) allow(size int, now tvatime.Time) bool {
	if now.After(f.last) {
		f.tokens += f.rateBps * now.Sub(f.last).Seconds()
		if burst := f.rateBps * 0.1; f.tokens > burst+3000 {
			f.tokens = burst + 3000
		}
		f.last = now
	}
	if f.tokens >= float64(size) {
		f.tokens -= float64(size)
		return true
	}
	return false
}

// Stats counts pushback activity.
type Stats struct {
	FiltersActive   int
	Activations     uint64
	Releases        uint64
	PushedUpstream  uint64
	AggregatesFound uint64
}

// Router is one pushback router's control state. The owning node calls
// Arrival for every received packet (and honours its verdict), reports
// output-queue drops via RecordDrop, and ticks the control loop with
// Tick every Interval.
type Router struct {
	// arrivals accumulates bytes per (input link, destination) within
	// the current interval.
	arrivals map[aggKey]float64
	// drops accumulates output-queue drop bytes per destination within
	// the current interval.
	drops     map[packet.Addr]float64
	sentBytes float64
	dropBytes float64
	outBps    int64 // congested output capacity (bits/sec)
	filters   map[aggKey]*filter
	upstream  map[linkID]*Router // neighbouring pushback routers
	Stats     Stats
	// Drops attributes packets discarded by rate-limit filters.
	Drops telemetry.DropCounters
}

// FilterDrops returns the packets discarded by rate-limit filters.
func (r *Router) FilterDrops() uint64 { return r.Drops.Get(telemetry.DropFilter) }

// NewRouter returns a pushback router watching one congested output
// link of capacity outBps.
func NewRouter(outBps int64) *Router {
	return &Router{
		arrivals: make(map[aggKey]float64),
		drops:    make(map[packet.Addr]float64),
		outBps:   outBps,
		filters:  make(map[aggKey]*filter),
		upstream: make(map[linkID]*Router),
	}
}

// SetUpstream registers a neighbouring pushback router reachable via
// the given input link, enabling recursive propagation.
func (r *Router) SetUpstream(in int, up *Router) { r.upstream[linkID(in)] = up }

// Interval returns the control period (the owner schedules Tick).
func (r *Router) Interval() tvatime.Duration { return interval }

// Arrival records an incoming packet and applies any filter for its
// (input link, destination). It reports whether to forward the packet.
func (r *Router) Arrival(pkt *packet.Packet, in int, now tvatime.Time) bool {
	key := aggKey{linkID(in), pkt.Dst}
	r.arrivals[key] += float64(pkt.Size)
	if f := r.filters[key]; f != nil && !f.allow(pkt.Size, now) {
		r.Drops.Inc(telemetry.DropFilter)
		return false
	}
	return true
}

// RecordDrop records an output-queue drop (wired to the congested
// interface's OnDrop).
func (r *Router) RecordDrop(pkt *packet.Packet) {
	r.drops[pkt.Dst] += float64(pkt.Size)
	r.dropBytes += float64(pkt.Size)
}

// RecordSent records bytes transmitted on the congested output within
// the interval (the owner samples the interface's counters).
func (r *Router) RecordSent(bytes uint64) { r.sentBytes += float64(bytes) }

// Tick runs one control interval: detect congestion, pick the
// aggregate, allocate per-link limits max-min, refresh or release
// filters, and recurse upstream.
func (r *Router) Tick(now tvatime.Time) {
	defer r.resetInterval()

	total := r.sentBytes + r.dropBytes
	dropRate := 0.0
	if total > 0 {
		dropRate = r.dropBytes / total
	}

	if dropRate > dropRateThreshold {
		dst, ok := r.worstAggregate()
		if ok {
			r.Stats.AggregatesFound++
			r.limitAggregate(dst, now, maxDepth)
		}
	}

	r.reviewFilters(now)
	r.Stats.FiltersActive = len(r.filters)
}

// worstAggregate returns the destination with the most dropped bytes.
func (r *Router) worstAggregate() (packet.Addr, bool) {
	var best packet.Addr
	var bestBytes float64
	for dst, b := range r.drops {
		if b > bestBytes {
			best, bestBytes = dst, b
		}
	}
	return best, bestBytes > 0
}

// limitAggregate computes the aggregate's allowed rate and installs
// per-input-link filters at their max-min shares.
func (r *Router) limitAggregate(dst packet.Addr, now tvatime.Time, depth int) {
	secs := interval.Seconds()
	var aggRate, otherRate float64 // bytes/sec
	contrib := make(map[linkID]float64)
	for key, bytes := range r.arrivals {
		rate := bytes / secs
		if key.dst == dst {
			aggRate += rate
			contrib[key.in] += rate
		} else {
			otherRate += rate
		}
	}
	if aggRate <= 0 {
		return
	}
	capacityBps := float64(r.outBps) / 8 * targetUtilization
	limit := capacityBps - otherRate
	if limit < capacityBps*0.05 {
		limit = capacityBps * 0.05 // never choke the aggregate entirely
	}
	if aggRate <= limit {
		return // aggregate fits; congestion is elsewhere
	}

	shares := waterfill(contrib, limit)
	for in, share := range shares {
		key := aggKey{in, dst}
		f := r.filters[key]
		if f == nil {
			f = &filter{last: now}
			r.filters[key] = f
			r.Stats.Activations++
		}
		f.rateBps = share
		f.calm = 0
		if up := r.upstream[in]; up != nil && depth > 1 {
			// Ask the upstream router to hold the aggregate to this
			// link's share before it even arrives here.
			r.Stats.PushedUpstream++
			up.AcceptLimit(dst, share, now, depth-1)
		}
	}
}

// AcceptLimit handles a pushback request from downstream: limit the
// aggregate toward dst to rateBps (bytes/sec) across this router's
// inputs, max-min by contribution.
func (r *Router) AcceptLimit(dst packet.Addr, rateBps float64, now tvatime.Time, depth int) {
	secs := interval.Seconds()
	contrib := make(map[linkID]float64)
	for key, bytes := range r.arrivals {
		if key.dst == dst {
			contrib[key.in] += bytes / secs
		}
	}
	if len(contrib) == 0 {
		return
	}
	shares := waterfill(contrib, rateBps)
	for in, share := range shares {
		key := aggKey{in, dst}
		f := r.filters[key]
		if f == nil {
			f = &filter{last: now}
			r.filters[key] = f
			r.Stats.Activations++
		}
		f.rateBps = share
		f.calm = 0
		if up := r.upstream[in]; up != nil && depth > 1 {
			r.Stats.PushedUpstream++
			up.AcceptLimit(dst, share, now, depth-1)
		}
	}
}

// reviewFilters releases filters whose aggregate arrivals stayed under
// the limit for releaseAfter consecutive intervals.
func (r *Router) reviewFilters(now tvatime.Time) {
	secs := interval.Seconds()
	for key, f := range r.filters {
		arrRate := r.arrivals[key] / secs
		if arrRate <= f.rateBps {
			f.calm++
			if f.calm >= releaseAfter {
				delete(r.filters, key)
				r.Stats.Releases++
			}
		} else {
			f.calm = 0
		}
	}
}

func (r *Router) resetInterval() {
	clear(r.arrivals)
	clear(r.drops)
	r.sentBytes = 0
	r.dropBytes = 0
}

// waterfill allocates capacity across demands max-min: every demand at
// or below the fair water level is fully satisfied; the rest are
// clipped to the level.
func waterfill(demands map[linkID]float64, capacity float64) map[linkID]float64 {
	if len(demands) == 0 {
		return nil
	}
	type dl struct {
		id linkID
		d  float64
	}
	list := make([]dl, 0, len(demands))
	var totalDemand float64
	for id, d := range demands {
		list = append(list, dl{id, d})
		totalDemand += d
	}
	out := make(map[linkID]float64, len(list))
	if totalDemand <= capacity {
		for _, e := range list {
			out[e.id] = e.d
		}
		return out
	}
	sort.Slice(list, func(i, j int) bool { return list[i].d < list[j].d })
	remaining := capacity
	for i, e := range list {
		level := remaining / float64(len(list)-i)
		if e.d <= level {
			out[e.id] = e.d
			remaining -= e.d
		} else {
			out[e.id] = level
			remaining -= level
		}
	}
	return out
}
