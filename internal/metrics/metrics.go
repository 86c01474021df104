// Package metrics is the streaming observability layer shared by both
// data planes: a preallocated, windowed time-series store (Registry)
// fed from the repo's existing telemetry counters and gauges, plus the
// two lock-free instruments (Counter and Sketch) that may sit directly
// on the forwarding hot path. Sketch is the repo's one histogram: the
// simulator keeps its queue-wait and delivery-latency distributions in
// it, and the overlay its per-port queue waits. The same series names
// exist whether the source is the discrete-event simulator (driven by
// netsim virtual time) or the real-UDP overlay (driven by wall time),
// which is what makes sim-vs-real comparison and a single tvatop
// console possible.
//
// Everything here is stdlib-only. Recording into an instrument is
// zero-allocation and safe for concurrent writers; sampling the
// registry (Tick) is zero-allocation after the first tick seals the
// series set.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing event count — packets
// forwarded, bytes delivered, drops by reason. Writers call Record
// from any goroutine; the registry samples it as a cumulative
// total and derives per-second rate and EWMA at tick time.
type Counter struct {
	v atomic.Uint64
}

// Record adds n events to the counter. It is a single atomic add —
// safe on the forwarding hot path.
//
//tva:hotpath
func (c *Counter) Record(n uint64) {
	c.v.Add(n)
}

// Value returns the current cumulative count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// SketchBuckets is the number of power-of-two buckets a Sketch holds:
// bucket 0 counts samples <= 0, bucket i counts samples with bit
// length i, that is [2^(i-1), 2^i). 64 buckets cover every int64, so
// Observe never branches on range. Exported so cross-plane comparison
// code (internal/xcheck) can size its CDF scratch without reaching
// into the sketch.
const SketchBuckets = 64

// Sketch is a fixed-bucket power-of-two histogram over int64 samples
// (typically nanosecond durations). Observe is one bits.Len64 plus one
// atomic add — no allocation, no floating point — so it can sit on the
// dequeue path of every interface in either data plane, and concurrent
// overlay goroutines can observe without a lock. Quantiles are exact
// to within a factor of two, which is all the time-series view needs.
// The zero value is ready to use.
type Sketch struct {
	counts [SketchBuckets]atomic.Uint64
}

// Observe records one sample.
//
//tva:hotpath
func (s *Sketch) Observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v)) % SketchBuckets
	}
	s.counts[i].Add(1)
}

// Counts returns a snapshot of the per-bucket observation counts.
// Reads are tearing-tolerant: a concurrent Observe may land between
// bucket loads, never corrupt them. This is the raw material for
// distribution comparisons (max-CDF-gap between the two data planes'
// wait sketches).
func (s *Sketch) Counts() [SketchBuckets]uint64 {
	var out [SketchBuckets]uint64
	for i := range s.counts {
		out[i] = s.counts[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 {
	var n uint64
	for i := range s.counts {
		n += s.counts[i].Load()
	}
	return n
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1):
// the upper edge of the bucket containing that rank. It walks one
// Counts snapshot, so its total and its walk agree even while writers
// observe; a concurrent Observe may shift the answer by one bucket.
func (s *Sketch) Quantile(q float64) int64 {
	counts := s.Counts()
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			if i == SketchBuckets-1 {
				break // upper edge would overflow; clamp to max
			}
			return int64(1) << i
		}
	}
	return math.MaxInt64
}
