package netsim

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"tva/internal/tvatime"
)

const (
	tick   = tvatime.Duration(1) << tickShift
	window = numBuckets * tick
)

// queueDiff drives an eventQueue and a plain eventHeap — the reference
// model — with the same operations and fails on the first difference.
// now follows the last popped event, as the simulator's clock does.
type queueDiff struct {
	t   testing.TB
	q   eventQueue
	ref eventHeap
	now tvatime.Time
	seq uint64
}

func (d *queueDiff) push(delay tvatime.Duration) {
	d.seq++
	ev := event{at: d.now.Add(delay), seq: d.seq, slot: uint32(d.seq)}
	d.q.push(ev)
	d.ref.push(ev)
}

func (d *queueDiff) peek() {
	d.t.Helper()
	got, ok := d.q.peek()
	if ok != (len(d.ref) > 0) {
		d.t.Fatalf("peek ok=%v with %d events pending", ok, len(d.ref))
	}
	if ok && got != d.ref[0] {
		d.t.Fatalf("peek = %+v, reference %+v", got, d.ref[0])
	}
}

// pop takes the earliest event if it is due by until.
func (d *queueDiff) pop(until tvatime.Time) {
	d.t.Helper()
	got, ok := d.q.pop(until)
	if due := len(d.ref) > 0 && d.ref[0].at <= until; ok != due {
		d.t.Fatalf("pop(%v) ok=%v with %d events pending, reference due=%v", until, ok, len(d.ref), due)
	}
	if !ok {
		return
	}
	if want := d.ref.pop(); got != want {
		d.t.Fatalf("pop = %+v, reference %+v", got, want)
	}
	d.now = got.at
	if d.q.len() != len(d.ref) {
		d.t.Fatalf("len = %d, reference %d", d.q.len(), len(d.ref))
	}
}

func (d *queueDiff) drain() {
	d.t.Helper()
	for len(d.ref) > 0 {
		d.peek()
		d.pop(endOfTime)
	}
	d.pop(endOfTime) // empty on both sides
}

// delayFor maps a class and a magnitude onto the delay regimes the
// queue treats differently: the same instant, inside one tick, inside
// the window, either side of the window edge, and far beyond it.
func delayFor(class uint8, mag uint16) tvatime.Duration {
	m := tvatime.Duration(mag)
	switch class % 6 {
	case 0:
		return 0
	case 1:
		return m % tick
	case 2:
		return m * window / 65536
	case 3:
		return window - 2*tick + m%(4*tick)
	case 4:
		return window + m*tick
	default:
		return 1000*window + m*window
	}
}

// runOps interprets data as a program: each op is a class byte and two
// magnitude bytes. Classes 0–5 push, 6 peeks, 7 pops — half the time
// only up to a bound drawn like a delay, as Run(until) does.
func runOps(t testing.TB, data []byte) {
	d := &queueDiff{t: t}
	for ; len(data) >= 3; data = data[3:] {
		switch op := data[0] % 8; op {
		case 6:
			d.peek()
		case 7:
			until := endOfTime
			if data[1]&1 == 1 {
				until = d.now.Add(delayFor(data[1]>>1, uint16(data[2])<<8))
			}
			d.pop(until)
		default:
			d.push(delayFor(op, uint16(data[1])<<8|uint16(data[2])))
		}
	}
	d.drain()
}

func TestEventQueueRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3*4000)
		rng.Read(prog)
		// Bias later seeds toward pops so the clock crosses many
		// windows and the bucket indices wrap.
		if seed > 10 {
			for i := 0; i < len(prog); i += 3 {
				if rng.Intn(3) == 0 {
					prog[i] = 7
				}
			}
		}
		runOps(t, prog)
	}
}

// A peek that saw only a far-future head must not stop the running
// event from scheduling at now, ahead of it.
func TestEventQueuePushAtNowAfterPeek(t *testing.T) {
	for _, far := range []tvatime.Duration{window - tick, window, 50 * window} {
		d := &queueDiff{t: t}
		d.push(3 * tick)
		d.pop(endOfTime)
		d.push(far)
		d.peek()
		d.push(0)
		d.push(tick / 2)
		d.push(5 * tick)
		d.peek()
		d.drain()
	}
}

// Events either side of the window edge, with the base at every phase
// of the bitmap so the bucket index wraps through word boundaries and
// past numBuckets.
func TestEventQueueWindowEdgeAndWrap(t *testing.T) {
	d := &queueDiff{t: t}
	for step := 0; step < 3*numBuckets; step += 7 {
		for _, off := range []tvatime.Duration{-tick, -1, 0, 1, tick} {
			d.push(window + off)
		}
		d.push(tick * 61) // next base: walks the index through every word
		d.push(0)
		d.peek()
		d.pop(endOfTime)
		d.pop(endOfTime)
	}
	d.drain()
}

func TestEventQueueAllOverflow(t *testing.T) {
	d := &queueDiff{t: t}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		d.push(100*window + tvatime.Duration(rng.Int63n(int64(1000*window))))
		if i%3 == 2 {
			d.pop(endOfTime)
		}
	}
	if d.q.inBuckets != 0 {
		t.Fatalf("%d events bucketed, want all in the overflow", d.q.inBuckets)
	}
	d.drain()
}

// 10⁴ events at one instant pop in scheduling order; and because the
// bucket they pile up in is a heap, twenty times as many still drain
// in milliseconds, where a scanned or insertion-sorted bucket would
// need ~10¹⁰ steps and blow the deadline.
func TestEventQueueAllOneTick(t *testing.T) {
	d := &queueDiff{t: t}
	d.push(5 * tick)
	d.pop(endOfTime)
	for i := 0; i < 10000; i++ {
		d.push(0)
	}
	d.drain()

	const n = 200000
	var q eventQueue
	start := time.Now()
	for i := 0; i < n; i++ {
		// Alternately after and before everything queued so far.
		seq := uint64(n + i)
		if i%2 == 1 {
			seq = uint64(n - i)
		}
		q.push(event{at: 5, seq: seq})
	}
	last := uint64(0)
	for q.len() > 0 {
		ev, _ := q.pop(endOfTime)
		if ev.seq < last {
			t.Fatalf("seq %d popped after %d", ev.seq, last)
		}
		last = ev.seq
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("%d events in one tick took %v: not sub-quadratic", n, el)
	}
}

// simModel is the reference simulator: one eventHeap of closures'
// indices, stepped in (at, seq) order.
type simModel struct {
	now tvatime.Time
	seq uint64
	h   eventHeap
	fns []func()
}

func (m *simModel) after(d tvatime.Duration, fn func()) {
	m.seq++
	m.h.push(event{at: m.now.Add(d), seq: m.seq, slot: uint32(len(m.fns))})
	m.fns = append(m.fns, fn)
}

func (m *simModel) run() {
	for len(m.h) > 0 {
		ev := m.h.pop()
		m.now = ev.at
		m.fns[ev.slot]()
	}
}

// firing is one timer going off.
type firing struct {
	id int
	at tvatime.Time
}

// spawn arms timer id on either simulator: when it fires it logs
// itself and arms two children whose delays derive from its id, until
// the id space is used up.
func spawn(after func(tvatime.Duration, func()), now func() tvatime.Time, log *[]firing, id, limit int) {
	if id >= limit {
		return
	}
	after(delayFor(uint8(id), uint16(id*2654435761>>7)), func() {
		*log = append(*log, firing{id, now()})
		spawn(after, now, log, 2*id+1, limit)
		spawn(after, now, log, 2*id+2, limit)
	})
}

// TestRunStopsBetweenEventsAndResumes splits one run into many Run
// calls whose bounds fall between events: the firing order and times
// must match the reference model's single pass.
func TestRunStopsBetweenEventsAndResumes(t *testing.T) {
	const limit = 3000
	var want, got []firing
	m := &simModel{}
	spawn(m.after, func() tvatime.Time { return m.now }, &want, 0, limit)
	m.run()
	if len(want) != limit {
		t.Fatalf("model fired %d timers, want %d", len(want), limit)
	}

	s := New(1)
	spawn(s.After, s.Now, &got, 0, limit)
	rng := rand.New(rand.NewSource(9))
	for until := tvatime.Time(0); len(got) < limit; {
		until = until.Add(tvatime.Duration(rng.Int63n(int64(3 * window))))
		s.Run(until)
		if s.Now() != until {
			t.Fatalf("Now = %v after Run(%v)", s.Now(), until)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// Scheduling at the stopped clock, between two Run calls, lands ahead
// of an event that was already pending beyond the first bound.
func TestScheduleAtStoppedClock(t *testing.T) {
	s := New(1)
	var order []int
	s.At(tvatime.FromSeconds(1), func() { order = append(order, 1) })
	s.At(tvatime.FromSeconds(3), func() { order = append(order, 3) })
	s.Run(tvatime.FromSeconds(2))
	s.After(500*tvatime.Millisecond, func() { order = append(order, 25) })
	s.At(0, func() { order = append(order, 2) }) // the past clamps to now
	s.Run(tvatime.FromSeconds(10))
	want := []int{1, 2, 25, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 7, 0, 0, 7, 0, 0})                   // same-instant tie
	f.Add([]byte{4, 0, 9, 6, 0, 0, 0, 0, 0, 7, 0, 0})                   // overflow head, peek, push at now
	f.Add([]byte{3, 0, 0, 3, 255, 255, 2, 128, 0, 7, 0, 0, 3, 0, 1})    // window edge
	f.Add([]byte{5, 0, 1, 5, 0, 0, 7, 0, 0, 1, 1, 1, 7, 0, 0, 7, 0, 0}) // all overflow, then near
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}

// holdDelay draws from the three delays that make up 94 % of a Fig. 8
// run's events: an access link's serialization (0.8 ms), a
// propagation (10 ms), an attacker's jittered pacing tick (6–10 ms).
func holdDelay(x *uint64) tvatime.Duration {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	switch *x % 3 {
	case 0:
		return 800 * tvatime.Microsecond
	case 1:
		return 10 * tvatime.Millisecond
	default:
		return 6*tvatime.Millisecond + tvatime.Duration(*x>>8%uint64(4*tvatime.Millisecond))
	}
}

// BenchmarkEventHold is the classic hold model: pop the earliest event
// and push one in its place, at the pending counts measured in Fig. 8
// runs (a mean of 350 for internet, 1 420 for tva). The bench ledger's
// netsim.event_ns times a one-element queue and cannot see this cost.
func BenchmarkEventHold(b *testing.B) {
	for _, pending := range []int{64, 350, 1400} {
		b.Run(strconv.Itoa(pending), func(b *testing.B) {
			s := New(1)
			x := uint64(88172645463325252)
			var fn func()
			fn = func() { s.After(holdDelay(&x), fn) }
			for i := 0; i < pending; i++ {
				fn()
			}
			for i := 0; i < 20*pending; i++ {
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
