package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/overlay"
	"tva/internal/packet"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// sock_fastpath: one overlay.Router between a bench driver socket and
// a bench sink socket on loopback UDP, fed the smallest data packet
// the protocol has (header-only, nonce-only regular) over warm flows.
// core is a few percent of the cost here; socket crossings, goroutine
// hand-off, the scheduler and the codec are the rest.
//
// The process is confined to one CPU (oneCPU), so generator, receive
// loop and transmit loop take turns. Two closed loops are timed: with
// fpWindow datagrams in flight the router moves full bursts (rate, CPU
// per datagram); with one in flight each datagram pays every hand-off
// alone (latency).
const (
	fpFlows = 2048
	fpBatch = 32
	// Datagrams in flight in the first loop: four full bursts per turn,
	// so the generator's two thread hand-offs per turn are spread thin,
	// and few enough to fit the router's socket buffer (256 header-only
	// datagrams overflow the default 208 KB).
	fpWindow = 128
	// A datagram not back by then is lost. Far longer than a round trip
	// (under 0.5 ms) because this machine stalls a thread for 50-200 ms now
	// and then: with a shorter timeout a stalled router's datagrams are
	// written off, arrive after all, and a run that lost nothing
	// reports failures.
	fpTimeoutNs = 1000 * 1000 * 1000
	fpSlices    = 20
	// Round trips kept per second of a phase at most (8 bytes each).
	fpRTTPerSec = 300_000
)

type fastpath struct {
	router   *overlay.Router
	drvConn  *net.UDPConn
	sinkConn *net.UDPConn
	drv      *burstConn
	sink     *burstConn
	srcBase  packet.Addr
	warm     [][]byte // one full-capability regular per flow
	data     [][]byte // the timed traffic: one nonce-only regular per flow
	scratch  packet.Packet
	bad      int64 // returned datagrams that failed verification
	next     int   // round-robin flow cursor
	burst    [][]byte
}

// setupFastpath binds the sockets, starts the router, makes the flows
// from the seed and warms the router's flow cache with one
// full-capability packet per flow.
func setupFastpath(seed int64, batch int, spans *overlay.SpanSink) (*fastpath, error) {
	f := &fastpath{burst: make([][]byte, 0, fpWindow)}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	var err error
	f.router, err = overlay.NewRouter(overlay.RouterConfig{
		Listen: "127.0.0.1:0",
		Core:   core.RouterConfig{Suite: capability.Crypto, CacheEntries: 2 * fpFlows, TrustBoundary: true},
		Batch:  batch,
		Spans:  spans,
	})
	if err != nil {
		return nil, err
	}
	if f.sinkConn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	if err = f.sinkConn.SetReadBuffer(4 << 20); err != nil {
		return nil, err
	}
	if f.drvConn, err = net.DialUDP("udp", nil, f.router.Addr()); err != nil {
		return nil, err
	}
	if f.drv, err = newBurstConn(f.drvConn, fpWindow, 1); err != nil {
		return nil, err
	}
	if f.sink, err = newBurstConn(f.sinkConn, fpWindow, 256); err != nil {
		return nil, err
	}
	if err = f.router.AddRoute(dstAddr, f.sinkConn.LocalAddr().String()); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	srcs := addrBlock(rng, 10, fpFlows)
	f.srcBase = srcs[0]
	auth := f.router.Core().Authority()
	now := tvatime.WallClock{}.Now()
	f.warm = make([][]byte, fpFlows)
	f.data = make([][]byte, fpFlows)
	for i, src := range srcs {
		nonce := rng.Uint64() & packet.NonceMask
		capv := capability.Crypto.MakeCap(auth.PreCap(src, dstAddr, now), packet.MaxNKB, packet.MaxTSeconds)
		if f.warm[i], err = wireRegular(src, nonce, capv); err != nil {
			return nil, err
		}
		if f.data[i], err = wireNonceOnly(src, nonce); err != nil {
			return nil, err
		}
	}
	// Warm: every flow's entry is created by its full-capability
	// packet; wait for each window to come back before the next so the
	// router's receive buffer cannot overflow.
	for i := 0; i < fpFlows; i += fpBatch {
		if _, err = f.drv.send(f.warm[i : i+fpBatch]); err != nil {
			return nil, err
		}
		for need := fpBatch; need > 0; {
			f.sinkConn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, rerr := f.sink.recv(true)
			if rerr != nil {
				return nil, fmt.Errorf("warming the flow cache: %w", rerr)
			}
			need -= n
		}
	}
	ok = true
	return f, nil
}

func (f *fastpath) close() {
	if f.drvConn != nil {
		f.drvConn.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	if f.sinkConn != nil {
		f.sinkConn.Close()
	}
}

// verify decodes a datagram back from the router and returns its flow:
// it must parse, still be a nonce-only regular, not be demoted, and
// have had its TTL decremented exactly once.
func (f *fastpath) verify(data []byte) int {
	p := &f.scratch
	if err := p.UnmarshalReuse(data); err != nil || p.Hdr == nil ||
		p.Hdr.Kind != packet.KindNonceOnly || p.Hdr.Demoted || p.TTL != 63 || p.Dst != dstAddr {
		f.bad++
		return -1
	}
	flow := int(p.Src - f.srcBase)
	if flow < 0 || flow >= fpFlows {
		f.bad++
		return -1
	}
	return flow
}

func (f *fastpath) send(w *window, k int, t int64, tr *spanRing, burst int64) error {
	f.burst = f.burst[:0]
	for i := 0; i < k; i++ {
		w.send(f.next, t)
		f.burst = append(f.burst, f.data[f.next])
		f.next = (f.next + 1) % fpFlows
	}
	var h int32
	if tr != nil {
		h = tr.begin(spGenSend, -1, burst, nanotime())
	}
	_, err := f.drv.send(f.burst)
	if tr != nil {
		tr.end(h, nanotime())
	}
	return err
}

// loopResult is the outcome of one closed-loop phase.
type loopResult struct {
	sl       *slicer
	sent     int64
	lost     int64
	rttUs    [][]float64 // per slice, round trip of each datagram that came back
	good     []float64   // per slice, datagrams back / datagrams back or lost
	genCPUNs int64
	wallNs   int64
}

// closedLoop keeps win datagrams in flight, sending one for each one
// received, for dur. The calling goroutine is the generator and is
// locked to its thread so its CPU can be told apart.
func (f *fastpath) closedLoop(dur time.Duration, win int, tr *spanRing) (*loopResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w := newWindow(fpFlows, fpTimeoutNs)
	res := &loopResult{rttUs: make([][]float64, fpSlices)}
	for i := range res.rttUs {
		res.rttUs[i] = make([]float64, 0, int(dur.Seconds()*fpRTTPerSec/fpSlices))
	}
	gen0 := threadCPU()
	start := nanotime()
	res.sl = newSlicer(start, int64(dur), fpSlices, threadCPU)
	if err := f.send(w, win, start, tr, 0); err != nil {
		return nil, err
	}
	res.sent = int64(win)
	slice, sliceGot, sliceLost := 0, 0, int64(0)
	for burst := int64(1); ; burst++ {
		f.sinkConn.SetReadDeadline(time.Now().Add(fpTimeoutNs))
		var h int32
		if tr != nil {
			h = tr.begin(spGenRecv, -1, burst, nanotime())
		}
		n, err := f.sink.recv(true)
		t := nanotime()
		if tr != nil {
			tr.end(h, t)
		}
		refill := 0
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				return nil, err
			}
			refill = w.expire(t)
		}
		got := 0
		rtts := &res.rttUs[slice]
		for i := 0; i < n; i++ {
			flow := f.verify(f.sink.buf(i))
			if e, ok := w.recv(flow, t); ok {
				got++
				if len(*rtts) < cap(*rtts) {
					*rtts = append(*rtts, float64(e)/1e3)
				}
			}
		}
		sliceGot += got
		over := res.sl.tick(t, got)
		if over || res.sl.cur != slice {
			if back := float64(sliceGot); back > 0 || w.lost > sliceLost {
				res.good = append(res.good, back/(back+float64(w.lost-sliceLost)))
			}
			slice, sliceGot, sliceLost = min(res.sl.cur, fpSlices-1), 0, w.lost
		}
		if over {
			break
		}
		if k := got + refill; k > 0 {
			if err := f.send(w, k, t, tr, burst); err != nil {
				return nil, err
			}
			res.sent += int64(k)
		}
	}
	res.wallNs = nanotime() - start
	res.genCPUNs = threadCPU() - gen0
	// Drain what is still in flight so the next phase starts clean.
	f.drain(w)
	res.lost = w.lost
	return res, nil
}

// drain collects datagrams still in flight for up to the timeout.
func (f *fastpath) drain(w *window) {
	deadline := time.Now().Add(fpTimeoutNs)
	for w.inflight > 0 {
		f.sinkConn.SetReadDeadline(deadline)
		n, err := f.sink.recv(true)
		if err != nil {
			break
		}
		t := nanotime()
		for i := 0; i < n; i++ {
			w.recv(f.verify(f.sink.buf(i)), t)
		}
	}
	w.expire(nanotime() + 2*fpTimeoutNs)
}

// fillFastpath reports the two phases' end-to-end slices into rep.
func fillFastpath(rep *report, sat, one *loopResult) {
	rep.e2e["kpps"] = sat.sl.kpps()
	rep.e2e["cpu_us_per_pkt"] = sat.sl.cpuUs()
	for _, rtt := range one.rttUs {
		if len(rtt) > 0 {
			rep.add("lat_p50_us", median(rtt))
		}
	}
	rep.e2e["goodput_frac"] = one.good
}

func runFastpath(c runCfg, rep *report) (*spanRing, error) {
	defer oneCPU(rep)()
	lc := startLeakCheck()
	f, setups, err := medianSetup(setupRepeats,
		func() (*fastpath, error) { return setupFastpath(c.seed, fpBatch, nil) }, (*fastpath).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep.e2e["setup_s"] = setups
	total := time.Duration(c.seconds * float64(time.Second))
	var ring *spanRing
	snap := func(at string) {
		if !c.trace {
			return
		}
		st := f.router.CoreStats()
		rep.counters = append(rep.counters, counterSnapshot{At: at, TimeNs: nanotime(), Values: map[string]float64{
			"overlay.received": float64(f.router.Received.Load()), "overlay.forwarded": float64(f.router.Forwarded.Load()),
			"overlay.rx_bursts": float64(f.router.RxBursts.Load()), "core.regular_hit": float64(st.RegularHit),
			"core.demoted": float64(st.Demoted), "overlay.queue_wait_count": float64(f.router.WaitSketch().Count()),
		}})
	}
	refKpps := 0.0
	if c.trace {
		// A short untraced closed loop first: what the traced one is
		// compared with.
		ref, err := f.closedLoop(total/8, fpWindow, nil)
		if err != nil {
			return nil, err
		}
		refKpps = median(ref.sl.kpps())
		ring = newSpanRing(traceRingSpans, spanNames...)
	}
	runtime.GC()
	mem0 := markMem()
	snap("sat.start")
	sat, err := f.closedLoop(total*2/3, fpWindow, ring)
	if err != nil {
		return nil, err
	}
	snap("sat.end")
	rxFill, txFill := f.router.RxBurstFill(), f.router.TxBurstFill() // of the full-window phase
	one, err := f.closedLoop(total/3, 1, ring)
	if err != nil {
		return nil, err
	}
	snap("one.end")
	mem1 := markMem()
	fillFastpath(rep, sat, one)
	rep.attempted = sat.sent + one.sent
	rep.failed = sat.lost + one.lost + f.bad

	r := f.router
	stats := r.CoreStats()
	malformed, unroutable := r.Malformed.Load(), r.Unroutable.Load()
	waitP50, waitP99 := r.WaitSketch().Quantile(0.5), r.WaitSketch().Quantile(0.99)
	auth := r.Core().Authority()
	f.close()
	poolDelta := lc.done(rep, true)

	if f.bad > 0 {
		rep.violate("%d datagrams came back undecodable, demoted, of the wrong kind or with a wrong TTL", f.bad)
	}
	if malformed > 0 || unroutable > 0 || stats.Demoted > 0 {
		rep.violate("router counted %d malformed, %d unroutable, %d demoted", malformed, unroutable, stats.Demoted)
	}
	if sat.lost+one.lost > 0 {
		rep.violate("%d datagrams lost with %d in flight, %d with one in flight", sat.lost, fpWindow, one.lost)
	}

	pkts := sat.sent + one.sent
	rep.layer["overlay.rx_burst_fill"] = rxFill
	rep.layer["overlay.tx_burst_fill"] = txFill
	rep.layer["overlay.queue_wait_p50_us"] = float64(waitP50) / 1e3
	rep.layer["overlay.queue_wait_p99_us"] = float64(waitP99) / 1e3
	rep.layer["overlay.malformed"] = float64(malformed)
	rep.layer["overlay.unroutable"] = float64(unroutable)
	all := flatten(one.rttUs)
	rep.layer["overlay.lat_p99_us"] = percentile(all, 99)
	rep.layer["overlay.paced_loss_frac"] = float64(one.lost) / float64(one.sent)
	rep.layer["core.cache_hit_frac"] = float64(stats.RegularHit) / float64(stats.RegularHit+stats.RegularMiss)
	rep.layer["core.demoted_frac"] = float64(stats.Demoted) / float64(pkts)
	rep.layer["packet.pool_live_delta"] = float64(poolDelta)
	rep.layer["bench.gen_cpu_frac"] = float64(sat.genCPUNs+one.genCPUNs) / float64(sat.wallNs+one.wallNs)
	rep.layer["bench.allocs_per_pkt"] = float64(mem1.mallocs-mem0.mallocs) / float64(pkts)
	rep.layer["bench.gc_pause_ms"] = float64(mem1.pauseNs-mem0.pauseNs) / 1e6
	pct, tail := tailPercentile(all, 10)
	satRTT := flatten(sat.rttUs)
	rttPct, rttTail := tailPercentile(satRTT, 10)
	rep.detail["one_in_flight_rtt_us"] = map[string]any{"n": len(all), "tail_pct": pct, "tail": tail}
	rep.detail["closed_loop_rtt_us"] = map[string]any{"n": len(satRTT), "p50": median(satRTT),
		"tail_pct": rttPct, "tail": rttTail}

	if !c.trace {
		return nil, nil
	}
	rep.layer["bench.trace_overhead_frac"] = 1 - median(sat.sl.kpps())/refKpps
	short := total / 8

	// The per-datagram twin: the same two phases at Batch 1.
	b1, err := setupFastpath(c.seed, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("batch 1 twin: %w", err)
	}
	b1sat, err := b1.closedLoop(short, fpWindow, nil)
	var b1one *loopResult
	if err == nil {
		b1one, err = b1.closedLoop(short, 1, nil)
	}
	b1.close()
	if err != nil {
		return nil, fmt.Errorf("batch 1 twin: %w", err)
	}
	rep.layer["overlay.batch1.kpps"] = median(b1sat.sl.kpps())
	rep.layer["overlay.batch1.lat_p50_us"] = median(flatten(b1one.rttUs))

	// What the program's own flight recorder costs: the closed loop
	// with RouterConfig.Spans set.
	sp, err := setupFastpath(c.seed, fpBatch, overlay.NewSpanSink(trace.NewRecorder(1<<16)))
	if err != nil {
		return nil, fmt.Errorf("spans twin: %w", err)
	}
	spSat, err := sp.closedLoop(short, fpWindow, nil)
	sp.close()
	if err != nil {
		return nil, fmt.Errorf("spans twin: %w", err)
	}
	rep.layer["overlay.spans_overhead_frac"] = 1 - median(spSat.sl.kpps())/refKpps

	// Attribution: the same packets through codec + core + sched in
	// this process, and through a forwarder that does nothing but move
	// datagrams; what is left of cpu_us_per_pkt is socket, lock and
	// hand-off cost inside overlay.
	replayUs := f.replay(auth, rep, ring)
	floorUs, err := udpFloor(f.data, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("udp floor: %w", err)
	}
	rep.layer["bench.udp_floor_us"] = floorUs
	rep.layer["overlay.io_residual_us"] = median(sat.sl.cpuUs()) - replayUs - floorUs
	return ring, nil
}

// replay pushes the timed packets through the in-process pipeline on
// a router sharing the socket router's secrets, with stage spans, and
// returns the pipeline's cost per packet in microseconds.
func (f *fastpath) replay(auth *capability.Authority, rep *report, ring *spanRing) float64 {
	p := newPipeline(newBenchRouter(2*fpFlows, auth, true))
	now := tvatime.WallClock{}.Now()
	p.seed(f.warm, now)
	kinds := make([]uint8, mixBurst)
	for i := range kinds {
		kinds[i] = kRegularHit
	}
	before := ring.selfNs()
	const rounds = 200
	t0 := nanotime()
	for r := 0; r < rounds; r++ {
		for i := 0; i < fpFlows; i += mixBurst {
			p.burst(f.data[i:i+mixBurst], kinds, now, ring, int64(r*fpFlows+i))
		}
	}
	wall := nanotime() - t0
	pkts := int64(rounds * fpFlows)
	if p.wrong+p.dropped+p.encErr > 0 {
		rep.violate("replay: %d wrong class, %d dropped, %d codec errors", p.wrong, p.dropped, p.encErr)
	}
	after := ring.selfNs()
	for k, v := range before {
		after[k] -= v
	}
	selfPerPkt(rep, after, pkts)
	return float64(wall) / 1e3 / float64(pkts)
}

// udpFloor measures what moving a datagram costs with no router at
// all: a goroutine that receives bursts on one socket and sends them
// on to the sink, fed by the same closed loop. The figure is that
// forwarder's CPU per datagram (process minus generator thread, median
// of ten slices), the floor under any userspace router on this kernel.
func udpFloor(data [][]byte, dur time.Duration) (float64, error) {
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer sinkConn.Close()
	inConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer inConn.Close()
	outConn, err := net.DialUDP("udp", nil, sinkConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, err
	}
	defer outConn.Close()
	drvConn, err := net.DialUDP("udp", nil, inConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, err
	}
	defer drvConn.Close()
	in, err := newBurstConn(inConn, fpBatch, 256)
	if err != nil {
		return 0, err
	}
	out, _ := newBurstConn(outConn, fpBatch, 1)
	drv, _ := newBurstConn(drvConn, fpWindow, 1)
	sink, _ := newBurstConn(sinkConn, fpWindow, 256)

	done := make(chan struct{})
	go func() { // the forwarder: exits when inConn is closed
		defer close(done)
		fwd := make([][]byte, 0, fpBatch)
		for {
			n, err := in.recv(true)
			if err != nil {
				return
			}
			fwd = fwd[:0]
			for i := 0; i < n; i++ {
				fwd = append(fwd, in.buf(i))
			}
			if _, err := out.send(fwd); err != nil {
				return
			}
		}
	}()

	runtime.LockOSThread()
	next := 0
	burst := make([][]byte, 0, fpWindow)
	refill := func(k int) error {
		burst = burst[:0]
		for i := 0; i < k; i++ {
			burst = append(burst, data[next])
			next = (next + 1) % len(data)
		}
		_, err := drv.send(burst)
		return err
	}
	sl := newSlicer(nanotime(), int64(dur), 10, threadCPU)
	err = refill(fpWindow)
	for err == nil {
		sinkConn.SetReadDeadline(time.Now().Add(time.Second))
		var n int
		if n, err = sink.recv(true); err == nil {
			if sl.tick(nanotime(), n) {
				break
			}
			err = refill(n)
		}
	}
	runtime.UnlockOSThread()
	inConn.Close()
	<-done
	if err != nil {
		return 0, err
	}
	return median(sl.cpuUs()), nil
}
