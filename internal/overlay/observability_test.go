package overlay

import (
	"bytes"
	"testing"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/metrics"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// mixedWorkload extends shardWorkload with invalid-capability packets
// so the runs exercise the demotion counters, not just classification.
func mixedWorkload(auth *capability.Authority, n int, now tvatime.Time) []*packet.Packet {
	pkts := shardWorkload(auth, n, now)
	for i, p := range pkts {
		if i%5 == 1 && p.Hdr.Kind == packet.KindRegular {
			p.Hdr.Caps = []uint64{uint64(i)*2654435761 + 17} // forged
		}
	}
	return pkts
}

func clonePkt(p *packet.Packet) *packet.Packet {
	c := *p
	h := *p.Hdr
	h.Caps = append([]uint64(nil), p.Hdr.Caps...)
	c.Hdr = &h
	return &c
}

// TestBatchObservabilityEquivalence pins the observability half of the
// ProcessBatch contract: a batched run must leave byte-identical
// stats and per-reason demotion counters to the same packets pushed
// one Process call at a time. A drop-reason counter that moved would
// mean the batch path attributes differently than the scalar path.
func TestBatchObservabilityEquivalence(t *testing.T) {
	suite := capability.Fast
	auth := capability.NewAuthority(suite, 0)
	now := tvatime.FromSeconds(1)
	pkts := mixedWorkload(auth, 500, now)

	scalar := core.NewRouter(core.RouterConfig{Suite: suite, Authority: auth})
	for _, p := range pkts {
		scalar.Process(clonePkt(p), 0, now)
	}

	batched := core.NewRouter(core.RouterConfig{Suite: suite, Authority: auth})
	const burstLen = 32
	b := packet.NewBatch(burstLen)
	for i := 0; i < len(pkts); i += burstLen {
		end := i + burstLen
		if end > len(pkts) {
			end = len(pkts)
		}
		for _, p := range pkts[i:end] {
			b.Append(clonePkt(p))
		}
		batched.ProcessBatch(b, 0, now)
		b.Reset()
	}

	if scalar.Stats != batched.Stats {
		t.Errorf("stats diverge: scalar %+v, batched %+v", scalar.Stats, batched.Stats)
	}
	if scalar.Demotions != batched.Demotions {
		t.Errorf("demotion counters diverge:\nscalar  %v\nbatched %v",
			scalar.Demotions, batched.Demotions)
	}
	if scalar.Demotions.Total() == 0 {
		t.Fatal("workload produced no demotions; the test exercises nothing")
	}
}

// TestShardObservabilityEquivalence requires the shard engine's merged
// counters to be independent of the shard count: flows hash wholly
// onto one shard, so slicing the same traffic 1 (inline), 2, or 4 ways
// must yield the aggregate stats and demotion attribution of one
// core.Router fed the same packets one Process call at a time.
func TestShardObservabilityEquivalence(t *testing.T) {
	suite := capability.Fast
	auth := capability.NewAuthority(suite, 0)
	now := tvatime.FromSeconds(1)
	pkts := mixedWorkload(auth, 400, now)

	ref := core.NewRouter(core.RouterConfig{Suite: suite, Authority: auth})
	for _, p := range pkts {
		ref.Process(clonePkt(p), 0, now)
	}
	if ref.Demotions.Total() == 0 {
		t.Fatal("workload produced no demotion attribution")
	}

	for _, shards := range []int{1, 2, 4} {
		base := core.RouterConfig{Suite: suite, Authority: auth}
		e := newShardEngine(shards, func() *core.Router { return core.NewRouter(base) })
		const burstLen = 16
		b := packet.NewBatch(burstLen)
		for i := 0; i < len(pkts); i += burstLen {
			end := i + burstLen
			if end > len(pkts) {
				end = len(pkts)
			}
			for _, p := range pkts[i:end] {
				b.Append(clonePkt(p))
			}
			e.process(b, now)
			b.Reset()
		}
		e.close()
		if st := e.stats(); st != ref.Stats {
			t.Errorf("shards=%d: stats %+v != reference %+v", shards, st, ref.Stats)
		}
		if dem := e.demotions(); dem != ref.Demotions {
			t.Errorf("shards=%d: demotions %v != reference %v", shards, dem, ref.Demotions)
		}
	}
}

// TestRouterMetricsExposition builds a registry off a real router
// that has forwarded traffic and checks the exposition parses
// strictly, carries the shared-name series tvatop requires, and that
// burst-fill gauges in the registry agree exactly with the router's
// own accessors — which at the default width read exactly 1, the
// simulator's figure for the same shared series.
func TestRouterMetricsExposition(t *testing.T) {
	for _, w := range []struct{ batch, shards int }{{0, 0}, {8, 2}} {
		r, alice, bob := testNetAt(t, w.batch, w.shards, core.NewClientPolicy(), core.NewServerPolicy())
		if err := alice.Send(bob.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, bob, 2*time.Second)
		// Closing first freezes the counters, so the registry sample and
		// the accessor reads below see the same values.
		alice.Close()
		bob.Close()
		r.Close()

		m := r.Metrics(16, metrics.DetectorConfig{})
		m.Tick(tvatime.WallClock{}.Now())
		m.Tick(tvatime.WallClock{}.Now() + tvatime.Time(tvatime.Second))

		var buf bytes.Buffer
		if err := m.Registry.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		sc, err := metrics.ParseProm(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
		}
		for _, name := range []string{
			"tva_router_received_total", "tva_router_forwarded_total",
			"tva_sched_drops_total", "tva_demotions_total",
			"tva_flowcache_entries", "tva_queue_wait_ns", "tva_queue_wait_ewma_us",
			"tva_rx_burst_fill", "tva_tx_burst_fill",
			"tva_queue_pkts", "tva_regular_queues", "tva_token_bucket_bytes",
			"tva_port_sent_pkts_total", "tva_port_dropped_pkts_total",
			"tva_health_state", "tva_health_transitions_total",
			"tva_router_received_total:rate", // synthetic rate after 2 ticks
		} {
			if !sc.Has(name) {
				t.Errorf("exposition missing %s", name)
			}
		}
		rx, tx := r.RxBurstFill(), r.TxBurstFill()
		if got, ok := sc.Get("tva_rx_burst_fill"); !ok || got.Value != rx {
			t.Errorf("registry rx burst fill %v, router says %v", got.Value, rx)
		}
		if got, ok := sc.Get("tva_tx_burst_fill"); !ok || got.Value != tx {
			t.Errorf("registry tx burst fill %v, router says %v", got.Value, tx)
		}
		if w.batch <= 1 && (rx != 1 || tx != 1) {
			t.Errorf("width-1 burst fill rx=%v tx=%v, want exactly 1", rx, tx)
		}
	}
}
