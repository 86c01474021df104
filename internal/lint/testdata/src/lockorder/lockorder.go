// Fixture for the lockorder analyzer: pairing, ordering, and
// hot-path blocking, plus the legal idioms next to each violation.
package lockorder

import (
	"sync"
	"sync/atomic"
	"time"
)

type S struct {
	mu   sync.Mutex
	mu2  sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	done chan struct{}
	n    int
}

// Good: the canonical defer pairing.
func (s *S) goodDefer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

// Good: unlock on every branch (the overlay's select-case idiom —
// any release in the scope satisfies pairing).
func (s *S) goodBranch(b bool) {
	s.mu.Lock()
	if b {
		s.n++
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// Good: release inside a deferred func literal.
func (s *S) goodDeferredLit() {
	s.mu.Lock()
	defer func() {
		s.n--
		s.mu.Unlock()
	}()
	s.n++
}

// Good: a goroutine body pairs its own locks in its own scope.
func (s *S) goodSpawn() {
	go func() {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}()
}

// Bad: locked and never released.
func (s *S) leak() {
	s.mu.Lock() // want "no matching Unlock"
	s.n++
}

// Bad: RLock must pair with RUnlock, not Unlock.
func (s *S) wrongMode() {
	s.rw.RLock() // want "no matching RUnlock"
	s.rw.Unlock()
}

// Bad: re-acquiring the same mutex while it is held.
func (s *S) recursive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want "self-deadlock"
	s.mu.Unlock()
}

// These two establish opposite nesting orders: each acquisition that
// completes a cycle is a finding.
func (s *S) lockAB() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu2.Lock() // want "inconsistent lock order"
	defer s.mu2.Unlock()
	s.n++
}

func (s *S) lockBA() {
	s.mu2.Lock()
	defer s.mu2.Unlock()
	s.mu.Lock() // want "inconsistent lock order"
	defer s.mu.Unlock()
	s.n++
}

// Good: a conditional unlock does not poison the straight-line
// continuation (the walker keeps the entry state after the branch).
func (s *S) goodCond(b bool) {
	s.mu.Lock()
	if b {
		s.n = 0
	}
	s.mu.Unlock()
}

//tva:hotpath
func (s *S) hotSend() {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while"
	s.mu.Unlock()
}

//tva:hotpath
func (s *S) hotRecv() {
	s.mu.Lock()
	v := <-s.ch // want "channel receive while"
	s.n = v
	s.mu.Unlock()
}

//tva:hotpath
func (s *S) hotSleep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while"
}

//tva:hotpath
func (s *S) hotSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select with no default"
	case <-s.done:
	case s.ch <- 1:
	}
}

//tva:hotpath
// Good: a select with a default never blocks, and sends after the
// unlock are the caller's problem.
func (s *S) hotNonBlocking() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
	s.ch <- 2
}

// Suppressed: the lock is handed to a goroutine that releases it
// (a pattern the per-scope rule cannot see).
func (s *S) suppressed() {
	//lint:ignore lockorder lock intentionally released by the spawned goroutine
	s.mu.Lock()
	go func() {
		s.n++
		s.mu.Unlock()
	}()
}

// Raw sync/atomic calls: each one is a finding, whatever the field's
// layout or its other accesses. The typed atomics below are the legal
// shape.
type Counters struct {
	hits uint64
	gen  uint32
}

func (c *Counters) Inc() { atomic.AddUint64(&c.hits, 1) } // want "atomic.AddUint64"

func (c *Counters) Snapshot() uint64 { return atomic.LoadUint64(&c.hits) } // want "atomic.LoadUint64"

type Packed struct {
	gen  uint32
	hits uint64
}

func (p *Packed) Inc() { atomic.AddUint64(&p.hits, 1) } // want "use the typed atomics"

var total uint64

func AddTotal(n uint64) { atomic.AddUint64(&total, n) } // want "use the typed atomics"

// Good: a typed instrument's methods are not sync/atomic functions.
type Typed struct {
	gen  uint32
	hits atomic.Uint64
}

func (t *Typed) Inc() { t.hits.Add(1) }

func (t *Typed) Snapshot() uint64 { return t.hits.Load() }

// Suppressed: one raw call kept on purpose.
func ReadTotal() uint64 {
	//lint:ignore lockorder fixture: the suppression path still works
	return atomic.LoadUint64(&total)
}
