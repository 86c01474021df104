package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/overlay"
	"tva/internal/packet"
	"tva/internal/telemetry"
)

// sock_flood: the paper's claim on the real plane. One router whose
// port to a public server is a paced 20 Mb/s link; two legitimate
// hosts send 1000-byte messages through the real shim handshake to
// the server while one attacker socket floods the link with legacy
// packets at three times its capacity and the request channel with
// spoofed requests. Same overlay and sched layers as sock_fastpath,
// used differently: paced ports, full queues, drops, renewals.
//
// One router, not a chain: two paced ports in series run in lock-step
// and a message's wait at the second depends on the two ports'
// relative phase, which drifts; the median latency then wanders
// between 6 and 11 ms from slice to slice. One paced port repeats
// within about 1%.
const (
	flLinkBps   = 20_000_000
	flUsers     = 2
	flMsgBytes  = 1000
	flLegitRate = 500.0 * flUsers // messages/s over all users: 8 Mb/s
	flAtkRate   = 7500.0          // 1000-byte legacy packets/s: 60 Mb/s, 3x the link
	flReqRate   = 8000.0          // spoofed requests/s
	flAtkSrcs   = 64
	flReqSrcs   = 256
	flGrantKB   = 1023 // with 500 KB/s per user a grant lasts ~2 s: renewals fire throughout
	flGrantTSec = 60
	// The generator looks at its schedules once per tick and sends what
	// has come due, so the router is woken a thousand times a second
	// whatever the arrival rates are. Woken per datagram (16 500 times a
	// second) the program's CPU per datagram is mostly what this virtual
	// machine charges for leaving idle, a price that changes by the
	// minute: ten runs then spread over a quarter of their median. A
	// message is timed from its due time all the same, so its wait for
	// the tick is part of its latency.
	flTickNs = 1_000_000
	flSlices = 20
	flDrain  = 300 * time.Millisecond
	// An attack packet this late is not sent: a flooder does not queue,
	// and a catch-up burst after a generator stall would overflow the
	// router's socket buffer and take legitimate packets with it.
	flAtkLateNs = 2_000_000
	flMsgHdr    = 16 // sequence number and due time lead each message
	// Wire overhead of a delivered message over its payload: outer
	// header plus a nonce-only shim header (approximate, for link use).
	flWireOverhead = 32
)

type flood struct {
	topo     *overlay.Topology
	dest     *overlay.Host
	users    [flUsers]*overlay.Host
	userIdx  map[packet.Addr]int
	atkConn  *net.UDPConn
	atk      *burstConn
	legacy   [][]byte
	requests [][]byte
	pattern  []byte // message body, from the seed
}

func setupFlood(seed int64, batch int) (*flood, error) {
	f := &flood{userIdx: map[packet.Addr]int{}}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	var err error
	f.topo, err = overlay.NewTopology(overlay.TopoConfig{Routers: 1, LinkBps: flLinkBps, Batch: batch,
		Suite: capability.Crypto})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	shim := core.ShimConfig{Suite: capability.Crypto, AutoReturn: true}
	policy := core.NewServerPolicy()
	policy.GrantKB, policy.GrantTSec = flGrantKB, flGrantTSec
	if f.dest, err = f.topo.AddHost(dstAddr, 0, policy, shim); err != nil {
		return nil, err
	}
	for i, addr := range addrBlock(rng, 10, flUsers) {
		if f.users[i], err = f.topo.AddHost(addr, 0, core.NewClientPolicy(), shim); err != nil {
			return nil, err
		}
		f.userIdx[addr] = i
	}
	if f.atkConn, err = net.DialUDP("udp", nil, f.topo.Router(0).Addr()); err != nil {
		return nil, err
	}
	if f.atk, err = newBurstConn(f.atkConn, fpBatch, 1); err != nil {
		return nil, err
	}
	for _, src := range addrBlock(rng, 11, flAtkSrcs) {
		w, err := wireLegacy(src, flMsgBytes)
		if err != nil {
			return nil, err
		}
		f.legacy = append(f.legacy, w)
	}
	for _, src := range addrBlock(rng, 12, flReqSrcs) {
		w, err := wireRequest(src)
		if err != nil {
			return nil, err
		}
		f.requests = append(f.requests, w)
		// As in the paper's request-flood experiment (section 5.2) the
		// server can tell the attackers' requests from its users' and
		// refuses them; a refusal is not answered, so the reverse path
		// carries only the users' grants.
		policy.MarkMisbehaving(src, 0)
	}
	f.pattern = make([]byte, flMsgBytes)
	rng.Read(f.pattern)

	// Handshake: knock, then poll until the shim holds capabilities.
	for i, u := range f.users {
		deadline := time.Now().Add(3 * time.Second)
		var knock time.Time
		for ; !u.HasCaps(dstAddr); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("user %d got no capabilities within 3 s", i)
			}
			if time.Since(knock) > 100*time.Millisecond {
				knock = time.Now()
				if err = u.Send(dstAddr, nil); err != nil {
					return nil, err
				}
			}
		}
	}
	ok = true
	return f, nil
}

func (f *flood) close() {
	if f.atkConn != nil {
		f.atkConn.Close()
	}
	if f.topo != nil {
		f.topo.Close()
	}
}

// floodResult is one timed phase's outcome.
type floodResult struct {
	sl         *slicer
	latUs      [][]float64 // per slice, one per message sent, +Inf if lost
	sent       int64       // legitimate messages
	delivered  int64
	corrupt    int64 // delivered with a wrong body, or twice
	demoted    int64 // delivered but marked demoted on the way
	atkSent    int64
	atkSkipped int64
	reqSent    int64
	legitBytes int64     // delivered, payload
	atkBytes   int64     // delivered, payload
	sendNs     []float64 // Host.Send call durations, sorted
	lateUs     []float64 // generator lateness on legitimate sends, sorted
	genCPUNs   int64
	wallNs     int64
}

// run floods for dur. The calling goroutine is the one generator
// thread: it busy-polls three Poisson schedules (legitimate messages,
// attack packets, spoofed requests) and sends what is due. A second
// goroutine reads the server's inbox and stamps arrivals.
func (f *flood) run(dur time.Duration, seed int64, tr *spanRing) (*floodResult, error) {
	expect := int(flLegitRate*dur.Seconds()*1.2) + 1024
	dueOf := make([]int64, 0, expect)
	recvAt := make([]int64, expect) // by sequence number, written by the receiver only
	res := &floodResult{}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		count := func(m overlay.Message) {
			t := nanotime()
			if _, legit := f.userIdx[m.Src]; !legit {
				res.atkBytes += int64(len(m.Payload))
				return
			}
			if len(m.Payload) < flMsgHdr {
				return // a knock or a bare renewal carries no message
			}
			seq := binary.BigEndian.Uint64(m.Payload)
			if len(m.Payload) != flMsgBytes || seq >= uint64(len(recvAt)) || recvAt[seq] != 0 ||
				!bytes.Equal(m.Payload[flMsgHdr:], f.pattern[flMsgHdr:]) {
				res.corrupt++
				return
			}
			recvAt[seq] = t
			res.delivered++
			res.legitBytes += int64(len(m.Payload))
			if m.Demoted {
				res.demoted++
			}
		}
		for {
			select {
			case m := <-f.dest.Inbox:
				count(m)
			case <-stop:
				for {
					select {
					case m := <-f.dest.Inbox:
						count(m)
					default:
						return
					}
				}
			}
		}
	}()

	runtime.LockOSThread()
	legit := newSchedule(seed, flLegitRate)
	attack := newSchedule(seed+1, flAtkRate)
	reqs := newSchedule(seed+2, flReqRate)
	msg := append([]byte(nil), f.pattern...)
	burst := make([][]byte, 0, fpBatch)
	var li, ai, ri int
	gen0 := threadCPU()
	start := nanotime()
	end := start + int64(dur)
	res.sl = newSlicer(start, int64(dur), flSlices, threadCPU)
	dueL, dueA, dueR := start+legit.next(), start+attack.next(), start+reqs.next()
	var sendErr error
	nextTick := start
	for burstID := int64(0); ; {
		t := nanotime()
		if t < nextTick {
			continue
		}
		offered := 0
		for dueL <= t && dueL < end {
			seq := uint64(len(dueOf))
			dueOf = append(dueOf, dueL)
			binary.BigEndian.PutUint64(msg, seq)
			binary.BigEndian.PutUint64(msg[8:], uint64(dueL))
			s0 := nanotime()
			if err := f.users[li%flUsers].Send(dstAddr, msg); err != nil && sendErr == nil {
				sendErr = err
			}
			res.sendNs = append(res.sendNs, float64(nanotime()-s0))
			res.lateUs = append(res.lateUs, float64(s0-dueL)/1e3)
			li++
			offered++
			dueL = start + legit.next()
		}
		burst = burst[:0]
		for len(burst) < cap(burst) {
			switch {
			case dueA <= t && dueA < end && dueA <= dueR:
				if t-dueA <= flAtkLateNs {
					burst = append(burst, f.legacy[ai%flAtkSrcs])
					ai++
					res.atkSent++
				} else {
					res.atkSkipped++
				}
				dueA = start + attack.next()
				continue
			case dueR <= t && dueR < end:
				if t-dueR <= flAtkLateNs {
					burst = append(burst, f.requests[ri%flReqSrcs])
					ri++
					res.reqSent++
				} else {
					res.atkSkipped++
				}
				dueR = start + reqs.next()
				continue
			}
			break
		}
		if len(burst) > 0 {
			burstID++
			var h int32
			if tr != nil {
				h = tr.begin(spGenSend, -1, burstID, t)
			}
			if _, err := f.atk.send(burst); err != nil && sendErr == nil {
				sendErr = err
			}
			if tr != nil {
				tr.end(h, nanotime())
			}
			offered += len(burst)
		}
		if len(burst) < cap(burst) { // everything due has been sent
			nextTick = t - (t-start)%flTickNs + flTickNs
		}
		if res.sl.tick(t, offered) || sendErr != nil {
			break
		}
	}
	res.wallNs = nanotime() - start
	res.genCPUNs = threadCPU() - gen0
	runtime.UnlockOSThread()
	time.Sleep(flDrain)
	close(stop)
	wg.Wait()
	if sendErr != nil {
		return nil, sendErr
	}

	res.sent = int64(len(dueOf))
	latUs := make([]float64, len(dueOf))
	for seq, due := range dueOf {
		latUs[seq] = inf
		if recvAt[seq] != 0 {
			latUs[seq] = float64(recvAt[seq]-due) / 1e3
		}
	}
	res.latUs = bySlice(dueOf, latUs, start, int64(dur), flSlices)
	res.sendNs = sorted(res.sendNs)
	res.lateUs = sorted(res.lateUs)
	return res, nil
}

// fill reports the flood's end-to-end slices into rep.
func (res *floodResult) fill(rep *report, dur time.Duration) {
	rep.e2e["cpu_us_per_pkt"] = res.sl.cpuUs()
	for _, got := range addLatency(rep, res.latUs) {
		rep.add("kpps", float64(got)/(dur.Seconds()/flSlices)/1e3)
	}
}

func runFlood(c runCfg, rep *report) (*spanRing, error) {
	lc := startLeakCheck()
	f, setups, err := medianSetup(setupRepeats, func() (*flood, error) { return setupFlood(c.seed, fpBatch) },
		(*flood).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep.e2e["setup_s"] = setups
	var ring *spanRing
	if c.trace {
		ring = newSpanRing(traceRingSpans, spanNames...)
	}
	dur := time.Duration(c.seconds * float64(time.Second))
	runtime.GC()
	mem0 := markMem()
	res, err := f.run(dur, c.seed, ring)
	if err != nil {
		return nil, err
	}
	mem1 := markMem()
	res.fill(rep, dur)
	rep.attempted = res.sent
	rep.failed = res.corrupt

	offered := res.sent + res.atkSent + res.reqSent
	r0 := f.topo.Router(0)
	link := f.dest.UDPAddr().String() // the port toward the server is the flooded link
	drops := r0.PortSchedDrops(link)
	wait := r0.PortWaitSketch(link)
	malformed, unroutable := r0.Malformed.Load(), r0.Unroutable.Load()
	stats := r0.CoreStats()
	capacity := float64(flLinkBps) / 8 * (dur + flDrain).Seconds()
	wireBytes := float64(res.legitBytes+res.atkBytes) +
		flWireOverhead*float64(res.delivered+res.atkBytes/flMsgBytes)
	f.close()
	poolDelta := lc.done(rep, true)

	if res.corrupt > 0 {
		rep.violate("%d messages arrived corrupt or twice", res.corrupt)
	}
	if malformed > 0 || unroutable > 0 {
		rep.violate("router counted %d malformed and %d unroutable datagrams", malformed, unroutable)
	}
	if wireBytes > 1.05*capacity {
		rep.violate("%.0f bytes crossed a link that carries %.0f in that time", wireBytes, capacity)
	}
	if g := float64(res.delivered) / float64(res.sent); g < 0.5 {
		rep.violate("only %.3f of legitimate messages arrived under flood", g)
	}

	rep.layer["sched.drop_frac"] = float64(drops.Total()) / float64(offered)
	rep.layer["sched.drop_reason.legacy_queue_full"] = float64(drops.Get(telemetry.DropLegacyQueueFull))
	rep.layer["sched.drop_reason.request_queue_full"] = float64(drops.Get(telemetry.DropRequestQueueFull) +
		drops.Get(telemetry.DropRequestRateLimited))
	rep.layer["sched.drop_reason.regular_queue_full"] = float64(drops.Get(telemetry.DropRegularQueueFull))
	rep.layer["overlay.link_util_frac"] = wireBytes / capacity
	rep.layer["overlay.host_send_ns"] = median(res.sendNs)
	rep.layer["overlay.malformed"] = float64(malformed)
	rep.layer["overlay.unroutable"] = float64(unroutable)
	rep.layer["overlay.rx_burst_fill"] = r0.RxBurstFill()
	rep.layer["overlay.tx_burst_fill"] = r0.TxBurstFill()
	if wait != nil {
		rep.layer["overlay.queue_wait_p50_us"] = float64(wait.Quantile(0.5)) / 1e3
		rep.layer["overlay.queue_wait_p99_us"] = float64(wait.Quantile(0.99)) / 1e3
	}
	all := flatten(res.latUs)
	rep.layer["overlay.lat_p99_us"] = finiteOr(percentile(all, 99), -1)
	rep.layer["overlay.paced_loss_frac"] = 1 - float64(res.delivered)/float64(res.sent)
	rep.layer["core.cache_hit_frac"] = float64(stats.RegularHit) / math.Max(1, float64(stats.RegularHit+stats.RegularMiss))
	rep.layer["core.demoted_frac"] = float64(stats.Demoted) / float64(offered)
	rep.layer["packet.pool_live_delta"] = float64(poolDelta)
	rep.layer["bench.gen_late_p99_us"] = percentile(res.lateUs, 99)
	rep.layer["bench.gen_cpu_frac"] = float64(res.genCPUNs) / float64(res.wallNs)
	rep.layer["bench.allocs_per_pkt"] = float64(mem1.mallocs-mem0.mallocs) / float64(offered)
	rep.layer["bench.gc_pause_ms"] = float64(mem1.pauseNs-mem0.pauseNs) / 1e6
	pct, tail := tailPercentile(all, 10)
	rep.detail["legit_latency_us"] = map[string]any{"n": len(all), "tail_pct": pct, "tail": finiteOr(tail, -1),
		"lost": res.sent - res.delivered, "demoted": res.demoted, "attack_skipped": res.atkSkipped}

	if c.trace {
		// The per-datagram twin: the same flood at Batch 1, where a
		// dequeued packet is paced alone instead of as part of a
		// 32-packet burst.
		b1, err := floodOnce(c.seed, 1, dur/4)
		if err != nil {
			return nil, fmt.Errorf("batch 1 twin: %w", err)
		}
		rep.layer["overlay.batch1.lat_p50_us"] = finiteOr(median(flatten(b1.latUs)), -1)
		rep.layer["overlay.batch1.kpps"] = float64(b1.delivered) / (dur / 4).Seconds() / 1e3
	}
	return ring, nil
}

// floodOnce sets a flood up, runs it for dur and tears it down.
func floodOnce(seed int64, batch int, dur time.Duration) (*floodResult, error) {
	f, err := setupFlood(seed, batch)
	if err != nil {
		return nil, err
	}
	defer f.close()
	return f.run(dur, seed, nil)
}

// flatten merges per-slice samples into one sorted set.
func flatten(slices [][]float64) []float64 {
	var all []float64
	for _, s := range slices {
		all = append(all, s...)
	}
	return sorted(all)
}

// finiteOr replaces an infinite or undefined value, which JSON cannot
// carry, by alt.
func finiteOr(v, alt float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return alt
	}
	return v
}
