package overlay

import (
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"tva/internal/core"
	"tva/internal/exp"
	"tva/internal/trace"
)

func streamShim() core.ShimConfig {
	return core.ShimConfig{AutoReturn: true}
}

// sendUntilDelivered drives the knock-then-stream loop until want
// full-size messages arrive at dst, or the deadline passes.
func sendUntilDelivered(t *testing.T, src, dst *Host, msg []byte, want int) int {
	t.Helper()
	got := 0
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for got < want {
		select {
		case m := <-dst.Inbox:
			if len(m.Payload) >= len(msg) {
				got++
			}
		case <-tick.C:
			if src.HasCaps(dst.Addr()) {
				src.Send(dst.Addr(), msg)
			} else {
				src.Send(dst.Addr(), nil) // knock: shim piggybacks the request
			}
		case <-deadline:
			t.Fatalf("delivered %d of %d messages before deadline", got, want)
		}
	}
	return got
}

// A three-router chain must forward end-to-end in-process: host at one
// edge acquires capabilities from a host at the other edge and streams
// messages across both inter-router links.
func TestTopologyChainForwardsEndToEnd(t *testing.T) {
	topo, err := NewTopology(TopoConfig{
		Routers:      3,
		LinkBps:      50_000_000,
		SpanCapacity: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()

	dest, err := topo.AddHost(exp.DestAddr, 2, core.NewServerPolicy(), streamShim())
	if err != nil {
		t.Fatal(err)
	}
	user, err := topo.AddHost(exp.UserAddr(0), 0, core.NewClientPolicy(), streamShim())
	if err != nil {
		t.Fatal(err)
	}

	msg := make([]byte, 512)
	sendUntilDelivered(t, user, dest, msg, 20)

	// The shared span sink must hold per-hop fragments from the chain:
	// every router assigns fresh trace IDs at ingress, so a delivered
	// message shows up as enqueue/dequeue/tx triples at each hop.
	spans := topo.Spans().Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	edges := map[trace.Edge]int{}
	for _, sp := range spans {
		edges[sp.Edge]++
	}
	for _, e := range []trace.Edge{trace.EdgeEnqueue, trace.EdgeDequeue, trace.EdgeTx} {
		if edges[e] == 0 {
			t.Fatalf("no %v spans recorded (edge counts: %v)", e, edges)
		}
	}
	// Hops from at least the two forward inter-router ports plus the
	// delivery port must be registered.
	stats := trace.AnalyzeAll(spans)
	hops := trace.AggregateHops(stats, uint32(exp.UserAddr(0)), uint32(exp.DestAddr))
	if len(hops) == 0 {
		t.Fatal("no per-hop aggregates for the user->dest flow")
	}
}

// Same-seed (here: same-workload) runs of the loopback topology must
// expose the identical metric series set and identical count-based
// totals — wall-clock timing may differ, packet counts may not.
func TestTopologyDeterministicSnapshot(t *testing.T) {
	run := func() (ids []string, delivered int) {
		topo, err := NewTopology(TopoConfig{Routers: 2, LinkBps: 50_000_000})
		if err != nil {
			t.Fatal(err)
		}
		defer topo.Close()
		dest, err := topo.AddHost(exp.DestAddr, 1, core.NewServerPolicy(), streamShim())
		if err != nil {
			t.Fatal(err)
		}
		user, err := topo.AddHost(exp.UserAddr(0), 0, core.NewClientPolicy(), streamShim())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := topo.StartMetrics(64, 0); err != nil {
			t.Fatal(err)
		}
		delivered = sendUntilDelivered(t, user, dest, make([]byte, 256), 10)
		topo.Tick()
		// Port labels carry ephemeral UDP addresses; erase the values so
		// the comparison is about series structure, not bind order.
		portVal := regexp.MustCompile(`port="[^"]*"`)
		for _, id := range topo.Metrics(0).Registry.IDs() {
			ids = append(ids, portVal.ReplaceAllString(id, `port="*"`))
		}
		sort.Strings(ids)
		return ids, delivered
	}
	ids1, n1 := run()
	ids2, n2 := run()
	if n1 != n2 {
		t.Fatalf("delivered counts differ: %d vs %d", n1, n2)
	}
	if len(ids1) == 0 {
		t.Fatal("empty series set")
	}
	if len(ids1) != len(ids2) {
		t.Fatalf("series sets differ in size: %d vs %d", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("series sets diverge at %d: %q vs %q", i, ids1[i], ids2[i])
		}
	}
}

// StartMetrics must refuse a second call.
func TestTopologyStartMetricsOnce(t *testing.T) {
	topo, err := NewTopology(TopoConfig{Routers: 2, LinkBps: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	if _, err := topo.AddHost(exp.DestAddr, 1, core.NewServerPolicy(), streamShim()); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.StartMetrics(16, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.StartMetrics(16, time.Millisecond); err == nil {
		t.Fatal("second StartMetrics succeeded")
	}
}

// Closing the topology must stop every goroutine it started: router
// receive/port loops, host loops, and the metrics ticker.
func TestTopologyCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	topo, err := NewTopology(TopoConfig{Routers: 3, LinkBps: 20_000_000, SpanCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	dest, err := topo.AddHost(exp.DestAddr, 2, core.NewServerPolicy(), streamShim())
	if err != nil {
		t.Fatal(err)
	}
	user, err := topo.AddHost(exp.UserAddr(0), 0, core.NewClientPolicy(), streamShim())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.StartMetrics(16, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sendUntilDelivered(t, user, dest, make([]byte, 128), 5)
	if err := topo.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := topo.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
