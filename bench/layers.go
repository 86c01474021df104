package main

import (
	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/flowcache"
	"tva/internal/flowstats"
	"tva/internal/mac"
	"tva/internal/metrics"
	"tva/internal/netsim"
	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// The layer ledger: stand-alone timings of each layer's public entry
// points, run in every traced pass so that a change in an end-to-end
// number can be traced to the layer that moved. Each figure is the
// median of ledgerRounds rounds of at least ledgerOps calls.
const (
	ledgerRounds = 5
	ledgerOps    = 1 << 16
)

// nsPerOp times rounds of fn, which performs and returns a number of
// operations, and returns the median ns per operation.
func nsPerOp(fn func() int) float64 {
	v := make([]float64, ledgerRounds)
	for i := range v {
		t0 := nanotime()
		n := fn()
		v[i] = float64(nanotime()-t0) / float64(n)
	}
	return median(v)
}

// calibAES times the fixed AES-MAC loop that is run beside every
// workload, so that ratios can be compared across machines.
func calibAES() float64 {
	k := mac.NewAES([16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	var sink uint64
	ns := nsPerOp(func() int {
		for i := 0; i < ledgerOps; i++ {
			sink += k.MAC56(uint64(i), 7, sink)
		}
		return ledgerOps
	})
	calibSink = sink
	return ns
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// ledger fills the stand-alone per-layer metrics into layer.
func ledger(seed int64, layer map[string]float64) error {
	in, err := setupCoreMix(seed)
	if err != nil {
		return err
	}
	ledgerCodec(in, layer)
	ledgerCore(in, layer)
	ledgerCapability(in, layer)
	ledgerFlowcache(layer)
	ledgerObservers(in, layer)
	ledgerSched(in, layer)
	sim := netsim.New(seed)
	layer["netsim.event_ns"] = nsPerOp(func() int {
		for i := 0; i < ledgerOps; i++ {
			sim.After(tvatime.Microsecond, func() {})
			sim.Step()
		}
		return ledgerOps
	})
	return nil
}

// ledgerCodec times decode and encode over one pattern of the mix.
func ledgerCodec(in *mixInputs, layer map[string]float64) {
	var cursor [nKinds]int
	wires := make([][]byte, mixPatternLen)
	for i, k := range in.pattern {
		wires[i] = in.wire[k][cursor[k]%len(in.wire[k])]
		cursor[k]++
	}
	pkts := make([]*packet.Packet, len(wires))
	for i := range pkts {
		pkts[i] = packet.AcquirePacket()
	}
	const passes = ledgerOps/mixPatternLen + 1
	bad := 0
	layer["packet.unmarshal_ns"] = nsPerOp(func() int {
		for r := 0; r < passes; r++ {
			for i, w := range wires {
				if pkts[i].UnmarshalReuse(w) != nil {
					bad++
				}
			}
		}
		return passes * mixPatternLen
	})
	buf := make([]byte, 0, 2048)
	layer["packet.marshal_ns"] = nsPerOp(func() int {
		for r := 0; r < passes; r++ {
			for _, p := range pkts {
				out, err := p.Marshal(buf[:0])
				if err != nil {
					bad++
					continue
				}
				buf = out[:0]
			}
		}
		return passes * mixPatternLen
	})
	for _, p := range pkts {
		packet.Release(p)
	}
	if bad > 0 {
		layer["packet.unmarshal_ns"], layer["packet.marshal_ns"] = -1, -1
	}
}

// processKind times ProcessBatch alone over homogeneous bursts of one
// kind on router r: every round empties the cache, re-creates the hit
// flows' entries and makes one pass over the kind's packets. Decode
// and release sit outside the timed call.
func processKind(in *mixInputs, r *core.Router, k uint8) float64 {
	wires := in.wire[k]
	if len(wires) > ledgerOps {
		wires = wires[:ledgerOps]
	}
	v := make([]float64, ledgerRounds)
	for round := range v {
		r.Cache().Flush()
		newPipeline(r).seed(in.seeds, mixT0)
		var ns int64
		pkts := 0
		// A burst every 100 virtual us: the miss kinds' entries have
		// expired by the time the cache is full again.
		const step = 100 * tvatime.Microsecond
		demoted := r.Stats.Demoted
		for pkts < ledgerOps {
			for i := 0; i+mixBurst <= len(wires); i += mixBurst {
				b := packet.AcquireBatch()
				for _, w := range wires[i : i+mixBurst] {
					pkt := packet.AcquirePacket()
					if pkt.UnmarshalReuse(w) == nil {
						b.Append(pkt)
					} else {
						packet.Release(pkt)
					}
				}
				now := mixT0.Add(tvatime.Duration(pkts/mixBurst) * step)
				t0 := nanotime()
				r.ProcessBatch(b, 0, now)
				ns += nanotime() - t0
				pkts += b.Len()
				b.ReleaseAll()
				packet.ReleaseBatch(b)
			}
		}
		v[round] = float64(ns) / float64(pkts)
		if r.Stats.Demoted != demoted {
			return -1 // the kind did not take the path it is named for
		}
	}
	return median(v)
}

func ledgerCore(in *mixInputs, layer map[string]float64) {
	for k := uint8(0); k < nKinds; k++ {
		layer["core.process_ns."+kindNames[k]] = processKind(in, in.router, k)
	}
	bare := newBenchRouter(mixCache, in.router.Authority(), false)
	layer["core.bare_ns.regular_hit"] = processKind(in, bare, kRegularHit)
	layer["core.observers_ns.regular_hit"] = layer["core.process_ns.regular_hit"] - layer["core.bare_ns.regular_hit"]
}

func ledgerCapability(in *mixInputs, layer map[string]float64) {
	auth := in.router.Authority()
	srcs := make([]packet.Addr, 1024)
	caps := make([]uint64, len(srcs))
	for i := range srcs {
		srcs[i] = packet.Addr(0x0e000000 + i)
		caps[i] = capability.Crypto.MakeCap(auth.PreCap(srcs[i], dstAddr, mixT0), packet.MaxNKB, packet.MaxTSeconds)
	}
	bad := 0
	layer["capability.validate_ns"] = nsPerOp(func() int {
		for i := 0; i < ledgerOps; i++ {
			j := i % len(srcs)
			if !auth.ValidateCap(srcs[j], dstAddr, caps[j], packet.MaxNKB, packet.MaxTSeconds, mixT0) {
				bad++
			}
		}
		return ledgerOps
	})
	var sink uint64
	layer["capability.precap_ns"] = nsPerOp(func() int {
		for i := 0; i < ledgerOps; i++ {
			sink += auth.PreCap(srcs[i%len(srcs)], dstAddr, mixT0)
		}
		return ledgerOps
	})
	calibSink += sink
	if bad > 0 {
		layer["capability.validate_ns"] = -1
	}
}

func ledgerFlowcache(layer map[string]float64) {
	const entries = 256
	c := flowcache.New(entries)
	expiry := mixT0.Add(60 * tvatime.Second)
	now := mixT0
	for i := 0; i < entries; i++ {
		c.Create(flowcache.Key{Src: packet.Addr(i + 1), Dst: dstAddr}, 1, 1, 1<<20, 60, expiry, 40, now)
	}
	hits := 0
	layer["flowcache.lookup_ns"] = nsPerOp(func() int {
		for i := 0; i < ledgerOps; i++ {
			if c.Lookup(packet.Addr(i%entries+1), dstAddr) != nil {
				hits++
			}
		}
		return ledgerOps
	})
	// At the bound every create must first evict the entry whose
	// time-to-live ran out longest ago; a 40-byte packet buys 2.4 ms
	// at this rate, so a create every 20 us always finds one.
	next := packet.Addr(entries + 1)
	now = now.Add(10 * tvatime.Millisecond) // the entries made above have run out
	failed := 0
	layer["flowcache.create_evict_ns"] = nsPerOp(func() int {
		for i := 0; i < ledgerOps; i++ {
			now = now.Add(20 * tvatime.Microsecond)
			if c.Create(flowcache.Key{Src: next, Dst: dstAddr}, 1, 1, 1<<20, 60, expiry, 40, now) == nil {
				failed++
			}
			next++
		}
		return ledgerOps
	})
	if failed > 0 || hits == 0 {
		layer["flowcache.create_evict_ns"] = -1
	}
}

func ledgerObservers(in *mixInputs, layer map[string]float64) {
	pkts := make([]*packet.Packet, 1024)
	for i := range pkts {
		pkts[i] = packet.AcquirePacket()
		if err := pkts[i].UnmarshalReuse(in.wire[kRegularHit][i]); err != nil {
			layer["flowstats.observe_ns"] = -1
			return
		}
	}
	flows := flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
	layer["flowstats.observe_ns"] = nsPerOp(func() int {
		for i := 0; i < ledgerOps; i++ {
			flows.Observe(pkts[i%len(pkts)])
		}
		return ledgerOps
	})
	for _, p := range pkts {
		packet.Release(p)
	}

	// A registry the size of a router's: a few dozen series.
	reg := metrics.New(64)
	var ctr [16]metrics.Counter
	var sk metrics.Sketch
	for i := range ctr {
		reg.CounterVar("bench_ledger_counter", metrics.L("i", string(rune('a'+i))), "ledger", &ctr[i])
	}
	reg.SketchQuantiles("bench_ledger_sketch", nil, "ledger", &sk, 0.5, 0.99)
	now := mixT0
	layer["metrics.tick_ns"] = nsPerOp(func() int {
		for i := 0; i < 1024; i++ {
			ctr[i%len(ctr)].Record(1)
			sk.Observe(int64(i))
			now = now.Add(tvatime.Millisecond)
			reg.Tick(now)
		}
		return 1024
	})

	rec := trace.NewRecorder(1 << 12)
	layer["trace.record_ns"] = nsPerOp(func() int {
		for i := 0; i < ledgerOps; i++ {
			rec.Record(trace.Span{ID: uint64(i + 1), Time: mixT0, Edge: trace.EdgeEnqueue, Size: 40})
		}
		return ledgerOps
	})
}

// ledgerSched times the TVA scheduler's batch calls over bursts of
// regular-class packets, per packet.
func ledgerSched(in *mixInputs, layer map[string]float64) {
	tva := sched.NewTVA(sched.TVAConfig{LinkBps: mixLinkBps})
	var out [mixBurst]*packet.Packet
	var enq, deq []float64
	for round := 0; round < ledgerRounds; round++ {
		var enqNs, deqNs int64
		pkts := 0
		for i := 0; pkts < ledgerOps; i = (i + mixBurst) % mixHitFlows {
			b := packet.AcquireBatch()
			for _, w := range in.wire[kRegularHit][i : i+mixBurst] {
				pkt := packet.AcquirePacket()
				if pkt.UnmarshalReuse(w) != nil {
					packet.Release(pkt)
					continue
				}
				pkt.Class = packet.ClassRegular
				b.Append(pkt)
			}
			t0 := nanotime()
			n := tva.EnqueueBatch(b, mixT0, packet.Release)
			t1 := nanotime()
			got, _ := tva.DequeueBatch(out[:n], mixT0)
			t2 := nanotime()
			enqNs += t1 - t0
			deqNs += t2 - t1
			pkts += got
			for j := 0; j < got; j++ {
				packet.Release(out[j])
			}
			packet.ReleaseBatch(b)
			if got == 0 {
				layer["sched.tva_enqueue_ns"], layer["sched.tva_dequeue_ns"] = -1, -1
				return
			}
		}
		enq = append(enq, float64(enqNs)/float64(pkts))
		deq = append(deq, float64(deqNs)/float64(pkts))
	}
	layer["sched.tva_enqueue_ns"] = median(enq)
	layer["sched.tva_dequeue_ns"] = median(deq)
}
