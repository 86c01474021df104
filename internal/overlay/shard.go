// Per-flow shard workers: the overlay's answer to multi-queue line
// cards. A burst read off the socket is scattered across N workers by
// a hash of the flow key (the same src/dst pair that keys the flow
// cache, so each flow's soft state lives wholly in one shard), every
// worker runs the shared capability-processing engine over its slots,
// and the gather is free: results land in the burst's original slot
// order, so forwarding stays deterministic and in arrival order no
// matter how the workers interleave.
//
// Shard replicas share one capability.Authority (internally locked)
// and one pathid.Tagger (immutable after construction), so all shards
// mint and validate identical capabilities; caches, stats, and
// demotion counters are per-shard and aggregated on read.
//
// The engine is the overlay's only capability-processing path. With
// one worker there is nothing to scatter: process runs ProcessBatch
// inline on the receive goroutine under that worker's lock, with no
// goroutine and no channel hop.
package overlay

import (
	"sync"

	"tva/internal/core"
	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// shardJob is one worker's slice of a burst: process the batch's
// slots at idxs and report done on the engine's gather group.
type shardJob struct {
	b    *packet.Batch
	idxs []int
	now  tvatime.Time
}

type shardWorker struct {
	// mu guards the replica's plain counters (Stats, Demotions, flow
	// cache, Flows): held around ProcessBatch by whichever goroutine
	// runs it (the worker's, or the receive goroutine when inline) and
	// by aggregate readers (each).
	mu   sync.Mutex
	core *core.Router
	in   chan shardJob // nil when the engine runs inline
}

// shardEngine classifies bursts on one or more core.Router replicas.
// It is driven by the single receive goroutine; the only concurrency
// is inside process().
type shardEngine struct {
	workers []*shardWorker
	idxs    [][]int        // per-shard slot index scratch, reused per burst
	wg      sync.WaitGroup // gather: one Add per scattered job
	run     sync.WaitGroup // worker goroutine lifetime
}

// flowShard hashes a flow key onto a shard. The mix must depend only
// on (src, dst) so every packet of a flow — requests, regular, and
// renewals — meets the same flow cache.
func flowShard(src, dst packet.Addr, n int) int {
	h := uint64(src)<<32 | uint64(dst)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

// newShardEngine builds n workers (n >= 1); mk constructs each shard's
// router replica (the caller wires the shared authority and tagger
// into it). Worker goroutines start only when there is more than one.
func newShardEngine(n int, mk func() *core.Router) *shardEngine {
	e := &shardEngine{
		workers: make([]*shardWorker, n),
		idxs:    make([][]int, n),
	}
	for i := range e.workers {
		w := &shardWorker{core: mk()}
		e.workers[i] = w
		if n > 1 {
			w.in = make(chan shardJob)
			e.run.Add(1)
			go e.work(w)
		}
	}
	return e
}

// work is one shard worker's goroutine: it classifies its slice of
// each scattered burst until close() closes its channel.
func (e *shardEngine) work(w *shardWorker) {
	defer e.run.Done()
	// scratch borrows slot references for the worker's batched engine
	// call; Reset (not ReleaseAll) hands them straight back — the burst
	// batch keeps ownership throughout.
	scratch := packet.NewBatch(packet.DefaultBatchCap)
	for job := range w.in {
		for _, idx := range job.idxs {
			scratch.Append(job.b.At(idx))
		}
		w.mu.Lock()
		w.core.ProcessBatch(scratch, 0, job.now)
		w.mu.Unlock()
		for j, idx := range job.idxs {
			job.b.SetClass(idx, scratch.Class(j))
		}
		scratch.Reset()
		e.wg.Done()
	}
}

// process classifies every slot of b, exactly as one core.Router
// ProcessBatch call would: inline with one worker, fanned across the
// shard workers otherwise. Interface index 0 throughout: the overlay's
// single socket is one ingress; deployments with multiple trust
// boundaries run one router process per boundary.
func (e *shardEngine) process(b *packet.Batch, now tvatime.Time) {
	if len(e.workers) == 1 {
		w := e.workers[0]
		w.mu.Lock()
		w.core.ProcessBatch(b, 0, now)
		w.mu.Unlock()
		return
	}
	for i := range e.idxs {
		e.idxs[i] = e.idxs[i][:0]
	}
	n := len(e.workers)
	for i, pkt := range b.Pkts() {
		if pkt == nil {
			continue
		}
		s := flowShard(pkt.Src, pkt.Dst, n)
		e.idxs[s] = append(e.idxs[s], i)
	}
	for s, idxs := range e.idxs {
		if len(idxs) == 0 {
			continue
		}
		e.wg.Add(1)
		e.workers[s].in <- shardJob{b: b, idxs: idxs, now: now}
	}
	e.wg.Wait()
}

// close shuts the worker goroutines down (if any) and waits for them.
func (e *shardEngine) close() {
	for _, w := range e.workers {
		if w.in != nil {
			close(w.in)
		}
	}
	e.run.Wait()
}

// each runs f on every replica in turn, under that replica's lock:
// the one way aggregate readers reach per-shard state.
func (e *shardEngine) each(f func(*core.Router)) {
	for _, w := range e.workers {
		w.mu.Lock()
		f(w.core)
		w.mu.Unlock()
	}
}

// stats sums the shard routers' counters.
func (e *shardEngine) stats() core.RouterStats {
	var total core.RouterStats
	e.each(func(c *core.Router) {
		s := c.Stats
		total.Requests += s.Requests
		total.RegularHit += s.RegularHit
		total.RegularMiss += s.RegularMiss
		total.Renewals += s.Renewals
		total.Replaced += s.Replaced
		total.Demoted += s.Demoted
		total.Legacy += s.Legacy
	})
	return total
}

// demotions merges the shard routers' demotion attribution.
func (e *shardEngine) demotions() telemetry.DropCounters {
	var total telemetry.DropCounters
	e.each(func(c *core.Router) { total.Merge(&c.Demotions) })
	return total
}
