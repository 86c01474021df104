// The event queue: a two-tier calendar queue over pointer-free keys
// (ns-2's default scheduler is a calendar queue too; DESIGN.md §7 has
// the budget this one was sized against).
package netsim

import (
	"math/bits"

	"tva/internal/tvatime"
)

// event is a queue key. What the event does lives in the simulator's
// payload slab under slot, so the queue's arrays hold no pointers: the
// garbage collector never scans them and moving a key costs no write
// barrier.
type event struct {
	at   tvatime.Time
	seq  uint64
	slot uint32
}

// before is the queue order: time, then scheduling order.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a value-based binary min-heap ordered by (at, seq), the
// building block of eventQueue (one per bucket, one for the overflow)
// and the reference model its tests compare against. Keys are stored
// by value rather than behind container/heap's interface; the backing
// array shrinks and regrows in place, so a heap allocates only when it
// holds more keys than it ever has.
type eventHeap []event

//tva:hotpath
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//tva:hotpath
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && s[l].before(s[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && s[r].before(s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// Queue geometry. A tick is 2^tickShift ns of virtual time and the
// window is numBuckets ticks (≈ 17 ms): wide enough that a Fig. 7
// link's serialization, propagation and attacker pacing events land in
// buckets, fine enough that a bucket rarely holds more than a couple of
// them. Protocol timers (hundreds of ms and up) go to the overflow.
// bucketCap is the room each bucket starts with; a fuller one regrows
// on its own.
const (
	tickShift   = 14
	numBuckets  = 1024
	bucketMask  = numBuckets - 1
	bucketWords = numBuckets / 64
	bucketCap   = 4
)

// eventQueue pops events in exactly (at, seq) order. Events whose tick
// (at >> tickShift) lies within numBuckets of the last popped tick sit
// in that tick's bucket, found through the occupancy bitmap; later
// ones sit in the overflow heap and are never moved: pop compares the
// first bucket's head with the overflow's head and takes the smaller.
// Every bucket is itself an eventHeap, so many events in one tick cost
// O(log m) each, never a scan.
//
// push requires ev.at to be no earlier than the last popped event's,
// which the simulator's clock guarantees (Sim.schedule clamps to now).
// With it every bucketed event stays inside [base, base+numBuckets),
// where bucket indices and ticks correspond one to one.
type eventQueue struct {
	base      int64 // tick of the last popped event; moves only in pop
	scan      int64 // while inBuckets > 0: base <= scan <= every bucketed tick
	inBuckets int
	occupied  [bucketWords]uint64
	buckets   [numBuckets]eventHeap
	overflow  eventHeap
}

// init carves the buckets' first bucketCap keys out of one array, so
// that the pops, and the pushes a fixed delay ahead of them, each walk
// memory in order. A zero eventQueue works without it.
func (q *eventQueue) init() {
	backing := make([]event, numBuckets*bucketCap)
	for i := range q.buckets {
		q.buckets[i] = backing[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
}

func (q *eventQueue) len() int { return q.inBuckets + len(q.overflow) }

//tva:hotpath
func (q *eventQueue) push(ev event) {
	tick := int64(ev.at) >> tickShift
	if tick-q.base >= numBuckets {
		q.overflow.push(ev)
		return
	}
	if q.inBuckets == 0 || tick < q.scan {
		q.scan = tick
	}
	q.inBuckets++
	i := tick & bucketMask
	q.occupied[i>>6] |= 1 << (i & 63)
	q.buckets[i].push(ev)
}

// firstBucket returns the index of the earliest occupied bucket and
// advances scan to its tick. It must not be called with inBuckets == 0.
// Advancing scan is safe where advancing base would not be: a push
// below scan lowers it again, whereas base decides which tier an event
// joins, and the running event may still schedule at now — before the
// head a peek just saw.
func (q *eventQueue) firstBucket() int {
	i := int(q.scan & bucketMask)
	w := i >> 6
	m := q.occupied[w] &^ (1<<(i&63) - 1)
	for m == 0 {
		// Wraps at most once round the bitmap, ending on the bits of
		// the first word below i: the far end of the window.
		w = (w + 1) % bucketWords
		m = q.occupied[w]
	}
	idx := w<<6 + bits.TrailingZeros64(m)
	q.scan += int64((idx - i) & bucketMask)
	return idx
}

// head returns the heap whose top is the earliest event, and its
// bucket index or -1 for the overflow. It must not be called on an
// empty queue.
func (q *eventQueue) head() (*eventHeap, int) {
	if q.inBuckets > 0 {
		idx := q.firstBucket()
		if b := &q.buckets[idx]; len(q.overflow) == 0 || !q.overflow[0].before((*b)[0]) {
			return b, idx
		}
	}
	return &q.overflow, -1
}

// peek returns the earliest event without removing it.
func (q *eventQueue) peek() (event, bool) {
	if q.len() == 0 {
		return event{}, false
	}
	h, _ := q.head()
	return (*h)[0], true
}

// pop removes and returns the earliest event if it is due at or before
// until.
//
//tva:hotpath
func (q *eventQueue) pop(until tvatime.Time) (event, bool) {
	if q.len() == 0 {
		return event{}, false
	}
	h, idx := q.head()
	if (*h)[0].at > until {
		return event{}, false
	}
	ev := h.pop()
	if idx >= 0 {
		q.inBuckets--
		if len(*h) == 0 {
			q.occupied[idx>>6] &^= 1 << (idx & 63)
		}
	}
	q.base = int64(ev.at) >> tickShift
	return ev, true
}
