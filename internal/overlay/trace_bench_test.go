package overlay

import (
	"testing"

	"tva/internal/trace"
	"tva/internal/tvatime"
)

// tracedWorkload is the Table 1 regular-with-entry workload with a span
// flight recorder attached to the router and a live trace ID on the
// scratch packet (UnmarshalReuse preserves TraceID, as the real
// forwarding path does: the ID rides the in-memory packet, not the
// wire), so every ForwardOne emits verdict spans into the recorder.
func tracedWorkload() *Workload {
	w := NewWorkload(KindRegularWithEntry)
	rec := trace.NewRecorder(1 << 12)
	w.Router.Spans = rec
	w.scratch.TraceID = rec.NextID()
	return w
}

// TestTracedForwardingNoAllocs is the recorder-enabled counterpart of
// the Table 1 zero-alloc guarantee: span emission on the forwarding
// hot path must not allocate either.
func TestTracedForwardingNoAllocs(t *testing.T) {
	w := tracedWorkload()
	now := tvatime.WallClock{}.Now()
	allocs := testing.AllocsPerRun(2000, func() {
		w.ForwardOne(now)
	})
	if allocs != 0 {
		t.Fatalf("traced forwarding allocates %.1f/op, want 0", allocs)
	}
	if w.Router.Spans.Recorded() == 0 {
		t.Fatal("recorder attached but no spans recorded")
	}
}

// BenchmarkTracedForwarding measures the span-recording overhead on
// the regular-with-entry path (compare BenchmarkForwarding elsewhere
// for the nil-recorder baseline).
func BenchmarkTracedForwarding(b *testing.B) {
	w := tracedWorkload()
	now := tvatime.WallClock{}.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ForwardOne(now)
	}
}
