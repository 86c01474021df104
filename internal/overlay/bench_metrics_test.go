package overlay

import (
	"testing"

	"tva/internal/tvatime"
)

// TestBenchMetricsNoAllocs is the runtime proof behind the bench
// guard's promise: forwarding a packet with the streaming instruments
// attached — counter, sketch, and a periodic registry Tick — does not
// allocate. The static twin is the //tva:hotpath annotation on
// BenchMetrics.Observe, checked by the lint fixture.
func TestBenchMetricsNoAllocs(t *testing.T) {
	w := NewWorkload(KindRegularWithEntry)
	m := NewBenchMetrics(w)
	now := tvatime.WallClock{}.Now()
	// Warm the path: any lazy growth (marshal buffer, cache churn)
	// settles before counting, same as the steady-state bench loops.
	for i := 0; i < 4096; i++ {
		w.ForwardOneObserved(now, m)
	}
	m.Tick()

	if allocs := testing.AllocsPerRun(2000, func() {
		w.ForwardOneObserved(now, m)
	}); allocs != 0 {
		t.Errorf("ForwardOneObserved allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		m.Tick()
	}); allocs != 0 {
		t.Errorf("BenchMetrics.Tick allocates %.1f per op, want 0", allocs)
	}
	if got := m.forwarded.Value(); got == 0 {
		t.Fatal("instruments recorded nothing")
	}
	if m.wire.Count() != m.forwarded.Value() {
		t.Errorf("sketch count %d != forwarded %d", m.wire.Count(), m.forwarded.Value())
	}
}
