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

// mixedWorkload builds a deterministic stream of fresh requests,
// capability-carrying regular packets across many flows, and regular
// packets with forged capabilities, so the runs exercise the demotion
// counters, not just classification.
func mixedWorkload(auth *capability.Authority, n int, now tvatime.Time) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	dst := packet.Addr(1)
	for i := range pkts {
		src := packet.Addr(1000 + i%97)
		h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoRaw}
		if i%3 != 0 {
			cap := capability.Crypto.MakeCap(auth.PreCap(src, dst, now), packet.MaxNKB, packet.MaxTSeconds)
			if i%5 == 1 {
				cap = uint64(i)*2654435761 + 17 // forged
			}
			h = &packet.CapHdr{Kind: packet.KindRegular, Proto: packet.ProtoRaw,
				Nonce: (uint64(i)*2654435761 + 1) & packet.NonceMask, NKB: packet.MaxNKB, TSec: packet.MaxTSeconds,
				Caps: []uint64{cap}}
		}
		pkts[i] = &packet.Packet{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
			Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}
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
	auth := capability.NewAuthority(0)
	now := tvatime.FromSeconds(1)
	pkts := mixedWorkload(auth, 500, now)

	scalar := core.NewRouter(core.RouterConfig{Authority: auth})
	for _, p := range pkts {
		scalar.Process(clonePkt(p), 0, now)
	}

	batched := core.NewRouter(core.RouterConfig{Authority: auth})
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

// TestRouterMetricsExposition builds a registry off a real router
// that has forwarded traffic and checks the exposition parses
// strictly, carries the shared-name series tvatop requires, and that
// burst-fill gauges in the registry agree exactly with the router's
// own accessors — which at the default width read exactly 1, the
// simulator's figure for the same shared series.
func TestRouterMetricsExposition(t *testing.T) {
	for _, batch := range []int{0, 8} {
		r, alice, bob := testNetAt(t, batch, core.NewClientPolicy(), core.NewServerPolicy())
		if err := alice.Send(bob.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, bob, 2*time.Second)
		// Closing first freezes the counters, so the registry sample and
		// the accessor reads below see the same values.
		alice.Close()
		bob.Close()
		r.Close()

		m := r.Metrics(16)
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
		if batch <= 1 && (rx != 1 || tx != 1) {
			t.Errorf("width-1 burst fill rx=%v tx=%v, want exactly 1", rx, tx)
		}
	}
}
