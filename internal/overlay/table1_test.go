package overlay

import (
	"strings"
	"testing"

	"tva/internal/flowstats"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// TestTable1NoAllocs holds every Table 1 packet kind at 0 allocs/op
// through the full forwarding path (decode, core.Router.Process with a
// per-sender flowstats collector attached, encode), plus the
// regular-with-entry path with the span flight recorder on. Each row
// first forwards one full workload cycle, so lazy growth (the marshal
// buffer, flow-cache churn, the heavy-hitter table) settles before
// counting. The other half of keeping the forwarding path instrumented
// for free, a counter, gauge and sketch recorded and the registry
// ticked, is metrics.TestTickNoAllocs.
func TestTable1NoAllocs(t *testing.T) {
	type row struct {
		name string
		w    *Workload
	}
	name := strings.NewReplacer(" w/o ", "_no_", " w/ ", "_with_", " ", "_")
	var rows []row
	for _, kind := range Kinds {
		rows = append(rows, row{name.Replace(kind.String()), NewWorkload(kind)})
	}
	// The traced row: a recorder on the router and a live trace ID on
	// the scratch packet (UnmarshalReuse preserves TraceID, as the real
	// forwarding path does: the ID rides the in-memory packet, not the
	// wire), so every ForwardOne emits verdict spans.
	traced := NewWorkload(KindRegularWithEntry)
	traced.Router.Spans = trace.NewRecorder(1 << 12)
	traced.scratch.TraceID = traced.Router.Spans.NextID()
	rows = append(rows, row{"regular_with_entry_traced", traced})

	now := tvatime.WallClock{}.Now()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			w := r.w
			flows := flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
			w.Router.Flows = flows
			for i := 0; i < w.Len(); i++ {
				w.ForwardOne(now)
			}
			if allocs := testing.AllocsPerRun(2000, func() {
				w.ForwardOne(now)
			}); allocs != 0 {
				t.Errorf("ForwardOne allocates %.1f per packet, want 0", allocs)
			}
			if flows.TotalBytes() == 0 {
				t.Error("flowstats collector attached but observed nothing")
			}
			if w.Router.Spans != nil && w.Router.Spans.Recorded() == 0 {
				t.Error("recorder attached but no spans recorded")
			}
		})
	}
}
