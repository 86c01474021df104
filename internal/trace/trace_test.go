package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

func span(id uint64, t tvatime.Time, edge Edge, hop uint16) Span {
	return Span{ID: id, Time: t, Src: 10, Dst: 20, Size: 1000, Edge: edge, Hop: hop}
}

func TestRecorderSeqOrder(t *testing.T) {
	r := NewRecorder(64)
	for i := 0; i < 10; i++ {
		r.Record(span(uint64(i+1), tvatime.Time(i), EdgeSend, NoHop))
	}
	got := r.Snapshot()
	if len(got) != 10 {
		t.Fatalf("snapshot len = %d, want 10", len(got))
	}
	for i, sp := range got {
		if sp.Seq != uint64(i+1) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (causal order)", i, sp.Seq, i+1)
		}
	}
	if r.Recorded() != 10 || r.Overwritten() != 0 {
		t.Fatalf("Recorded=%d Overwritten=%d, want 10/0", r.Recorded(), r.Overwritten())
	}
}

func TestRecorderWraparoundOldestFirst(t *testing.T) {
	// Capacity 16 over 8 shards = 2 spans per shard. Five spans of one
	// trace ID all land in one shard; only the newest two survive, in
	// causal order.
	r := NewRecorder(16)
	for i := 0; i < 5; i++ {
		r.Record(span(1, tvatime.Time(i), EdgeEnqueue, 0))
	}
	got := r.Snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(got))
	}
	if got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("snapshot Seqs = %d,%d, want 4,5 (oldest first after overwrite)", got[0].Seq, got[1].Seq)
	}
	if r.Overwritten() != 3 {
		t.Fatalf("Overwritten = %d, want 3", r.Overwritten())
	}
}

func TestRecorderShardIsolation(t *testing.T) {
	// A storm on trace ID 8 (shard 0) must not evict ID 1's (shard 1)
	// history.
	r := NewRecorder(16)
	r.Record(span(1, 0, EdgeSend, NoHop))
	for i := 0; i < 100; i++ {
		r.Record(span(8, tvatime.Time(i+1), EdgeEnqueue, 0))
	}
	var kept bool
	for _, sp := range r.Snapshot() {
		if sp.ID == 1 {
			kept = true
		}
	}
	if !kept {
		t.Fatal("shard isolation failed: ID 1's span evicted by ID 8's storm")
	}
}

func TestRecordNoAllocs(t *testing.T) {
	r := NewRecorder(1 << 10)
	sp := span(3, 7, EdgeTx, 2)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(sp)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

func TestNextIDMonotonic(t *testing.T) {
	r := NewRecorder(8)
	if r.NextID() != 1 || r.NextID() != 2 || r.LastID() != 2 {
		t.Fatal("NextID not monotonic from 1")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	h0 := r.RegisterHop("user0#0->L")
	h1 := r.RegisterHop("L#0->R")
	r.Record(Span{ID: 1, Time: 5, Src: 1, Dst: 2, Size: 1048, PathID: 77,
		Hop: h0, Edge: EdgeEnqueue, Class: 1, Kind: 1})
	r.Record(Span{ID: 1, Time: 9, Src: 1, Dst: 2, Size: 1048,
		Hop: h1, Edge: EdgeDrop, Class: 1, Kind: 1,
		Reason: telemetry.DropReason(3), Router: 2})

	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Hops) != 2 || d.Hops[0] != "user0#0->L" || d.Hops[1] != "L#0->R" {
		t.Fatalf("hops = %v", d.Hops)
	}
	want := r.Snapshot()
	if len(d.Spans) != len(want) {
		t.Fatalf("spans = %d, want %d", len(d.Spans), len(want))
	}
	for i := range want {
		if d.Spans[i] != want[i] {
			t.Fatalf("span %d: got %+v want %+v", i, d.Spans[i], want[i])
		}
	}
}

func TestReadDumpRejectsGarbage(t *testing.T) {
	if _, err := ReadDump(strings.NewReader("not a trace dump at all")); err == nil {
		t.Fatal("ReadDump accepted garbage")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := NewRecorder(64)
	hop := r.RegisterHop("L#0->R")
	r.Record(Span{ID: 1, Time: 1000, Edge: EdgeSend, Hop: hop, Class: 1, Kind: 1})
	r.Record(Span{ID: 1, Time: 2000, Edge: EdgeEnqueue, Hop: hop, Class: 1, PathID: 3})
	r.Record(Span{ID: 1, Time: 3000, Edge: EdgeDequeue, Hop: hop, Class: 1})
	r.Record(Span{ID: 1, Time: 4000, Edge: EdgeTx, Hop: hop, Class: 1})
	r.Record(Span{ID: 1, Time: 5000, Edge: EdgeVerdict, Hop: NoHop, Class: 2, Router: 1})
	r.Record(Span{ID: 1, Time: 6000, Edge: EdgeDeliver, Hop: hop, Class: 2})

	var dumpBuf bytes.Buffer
	if err := r.WriteDump(&dumpBuf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&dumpBuf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, d); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", out.String())
	}
	var parsed struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	var sawQueue, sawTx bool
	for _, ev := range parsed.Events {
		switch ev["name"] {
		case "queue request":
			sawQueue = true
		case "tx":
			sawTx = true
		}
	}
	if !sawQueue || !sawTx {
		t.Fatalf("missing reconstructed phases: queue=%v tx=%v", sawQueue, sawTx)
	}
}

func TestAnalyzeDeliveredChain(t *testing.T) {
	ch := Chain{ID: 1, Spans: []Span{
		{ID: 1, Seq: 1, Time: 0, Edge: EdgeSend, Hop: 0, Class: 1, Src: 1, Dst: 2, Size: 100},
		{ID: 1, Seq: 2, Time: 0, Edge: EdgeEnqueue, Hop: 0, Class: 1, Src: 1, Dst: 2, Size: 100},
		{ID: 1, Seq: 3, Time: 10, Edge: EdgeDequeue, Hop: 0, Class: 1},
		{ID: 1, Seq: 4, Time: 15, Edge: EdgeTx, Hop: 0, Class: 1},
		{ID: 1, Seq: 5, Time: 20, Edge: EdgeEnqueue, Hop: 1, Class: 1},
		{ID: 1, Seq: 6, Time: 50, Edge: EdgeDequeue, Hop: 1, Class: 1},
		{ID: 1, Seq: 7, Time: 55, Edge: EdgeTx, Hop: 1, Class: 1},
		{ID: 1, Seq: 8, Time: 60, Edge: EdgeDeliver, Hop: 2, Class: 1, Src: 1, Dst: 2, Size: 100},
	}}
	st := Analyze(ch)
	if st.Outcome != ChainDelivered {
		t.Fatalf("outcome = %s, want delivered", st.Outcome)
	}
	if st.Total() != 60 {
		t.Fatalf("total = %d, want 60", st.Total())
	}
	if len(st.Visits) != 2 {
		t.Fatalf("visits = %d, want 2", len(st.Visits))
	}
	if w := st.Visits[0].Wait(); w != 10 {
		t.Fatalf("hop0 wait = %d, want 10", w)
	}
	if s := st.Visits[0].Service(); s != 5 {
		t.Fatalf("hop0 service = %d, want 5", s)
	}
	if hop, wait := st.Bottleneck(); hop != 1 || wait != 30 {
		t.Fatalf("bottleneck = hop %d wait %d, want hop 1 wait 30", hop, wait)
	}
	if q := st.QueueWait(); q != 40 {
		t.Fatalf("queue wait = %d, want 40", q)
	}
}

func TestAnalyzeDroppedChain(t *testing.T) {
	ch := Chain{ID: 2, Spans: []Span{
		{ID: 2, Seq: 1, Time: 0, Edge: EdgeSend, Hop: 0},
		{ID: 2, Seq: 2, Time: 5, Edge: EdgeDrop, Hop: 1, Reason: telemetry.DropReason(2)},
	}}
	st := Analyze(ch)
	if st.Outcome != ChainDropped || st.DropHop != 1 || st.DropTime != 5 {
		t.Fatalf("drop attribution wrong: %+v", st)
	}
	if st.DropReason != telemetry.DropReason(2) {
		t.Fatalf("reason = %v", st.DropReason)
	}
}

func TestQueueSharers(t *testing.T) {
	spans := []Span{
		{ID: 1, Seq: 1, Time: 0, Edge: EdgeEnqueue, Hop: 0},
		{ID: 2, Seq: 2, Time: 1, Edge: EdgeEnqueue, Hop: 0},
		{ID: 3, Seq: 3, Time: 2, Edge: EdgeEnqueue, Hop: 0},
		{ID: 1, Seq: 4, Time: 3, Edge: EdgeDequeue, Hop: 0}, // gone before t=5
		{ID: 4, Seq: 5, Time: 4, Edge: EdgeEnqueue, Hop: 1}, // other hop
		{ID: 5, Seq: 6, Time: 5, Edge: EdgeDrop, Hop: 0},    // the victim
		{ID: 6, Seq: 7, Time: 6, Edge: EdgeEnqueue, Hop: 0}, // after t
	}
	got := QueueSharers(spans, 0, 5, 5)
	want := []uint64{2, 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("sharers = %v, want %v", got, want)
	}
}

func TestChainsGroupsAndSorts(t *testing.T) {
	spans := []Span{
		{ID: 2, Seq: 3, Edge: EdgeDeliver},
		{ID: 1, Seq: 2, Edge: EdgeDeliver},
		{ID: 2, Seq: 1, Edge: EdgeSend},
	}
	chains := Chains(spans)
	if len(chains) != 2 || chains[0].ID != 1 || chains[1].ID != 2 {
		t.Fatalf("chains = %+v", chains)
	}
	if chains[1].Spans[0].Seq != 1 || chains[1].Spans[1].Seq != 3 {
		t.Fatal("chain spans not Seq-sorted")
	}
}

func TestAggregateHops(t *testing.T) {
	stats := []ChainStats{
		{Src: 1, Dst: 2, Visits: []HopVisit{{Hop: 0, Enqueue: 0, Dequeue: 10, Tx: 12}}},
		{Src: 1, Dst: 2, Visits: []HopVisit{{Hop: 0, Enqueue: 0, Dequeue: 30, Tx: 32}}},
		{Src: 9, Dst: 2, Visits: []HopVisit{{Hop: 0, Enqueue: 0, Dequeue: 100, Tx: 101}}},
	}
	aggs := AggregateHops(stats, 1, 0)
	if len(aggs) != 1 || aggs[0].Visits != 2 {
		t.Fatalf("aggs = %+v", aggs)
	}
	if aggs[0].MeanWait() != 20 || aggs[0].WaitMax != 30 {
		t.Fatalf("wait agg = mean %d max %d", aggs[0].MeanWait(), aggs[0].WaitMax)
	}
}

func TestEdgeAndClassNames(t *testing.T) {
	if EdgeSend.String() != "send" || EdgeDeliver.String() != "deliver" {
		t.Fatal("edge names wrong")
	}
	if Edge(200).String() != "unknown" {
		t.Fatal("out-of-range edge should be unknown")
	}
	if ClassName(1) != "request" || ClassName(2) != "regular" || ClassName(0) != "legacy" {
		t.Fatal("class names wrong")
	}
	if KindName(0) != "legacy" || KindName(4) != "renewal" {
		t.Fatal("kind names wrong")
	}
}

// TestWriteText pins the one-line-per-span format tvasim -trace
// prints: the reason appears on drop and demote spans only,
// router-local spans name their router, and a health span prints its
// state change.
func TestWriteText(t *testing.T) {
	r := NewRecorder(64)
	hop := r.RegisterHop("L#0->R")
	src, dst := uint32(10<<24|1), uint32(192<<24|168<<16|1)
	ms := func(n int64) tvatime.Time { return tvatime.Time(0).Add(tvatime.Duration(n) * tvatime.Millisecond) }
	r.Record(Span{ID: 1, Time: ms(1), Src: src, Dst: dst, Size: 1048, Hop: NoHop,
		Edge: EdgeDemote, Reason: telemetry.DropCapExpired, Router: 1})
	r.Record(Span{ID: 1, Time: ms(2), Src: src, Dst: dst, Size: 1048, Hop: hop,
		Edge: EdgeEnqueue, Class: 2})
	r.Record(Span{ID: 1, Time: ms(3), Src: src, Dst: dst, Size: 1048, Hop: hop,
		Edge: EdgeDrop, Reason: telemetry.DropLegacyQueueFull})
	r.Record(Span{Time: ms(4), Hop: NoHop, Edge: EdgeHealth, Kind: 1, Class: 2})

	var out bytes.Buffer
	if err := WriteText(&out, r.Snapshot(), r.HopName); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"0.001000 demote   router-1         src=10.0.0.1 dst=192.168.0.1 class=legacy size=1048 reason=cap-expired\n" +
		"0.002000 enqueue  L#0->R           src=10.0.0.1 dst=192.168.0.1 class=regular size=1048\n" +
		"0.003000 drop     L#0->R           src=10.0.0.1 dst=192.168.0.1 class=legacy size=1048 reason=legacy-queue-full\n" +
		"0.004000 health   healthy -> under-attack\n"
	if out.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", out.String(), want)
	}
}
