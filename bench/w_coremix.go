package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/flowstats"
	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/tvatime"
)

// core_mix: the data plane minus I/O. One thread, no sockets, no
// goroutines: decode -> core.Router.ProcessBatch -> sched.TVA enqueue
// -> dequeue -> encode, in bursts of 32, over a seed-shuffled mix of
// the paper's Table 1 packet kinds. packet, core, capability/mac,
// flowcache, flowstats and sched/fq are all of the time here.

// The Table 1 kinds, in the order their per-kind metrics are named.
const (
	kLegacy uint8 = iota
	kRequest
	kRegularHit
	kRegularMiss
	kRenewalHit
	kRenewalMiss
	nKinds
)

var kindNames = [nKinds]string{"legacy", "request", "regular_hit", "regular_miss", "renewal_hit", "renewal_miss"}

// mixPercent is the share of each kind in the mix.
var mixPercent = [nKinds]int{kLegacy: 10, kRequest: 10, kRegularHit: 60, kRegularMiss: 10, kRenewalHit: 8, kRenewalMiss: 2}

// wantClass is the class each kind must leave the router with; none
// may be demoted.
var wantClass = [nKinds]packet.Class{kLegacy: packet.ClassLegacy, kRequest: packet.ClassRequest,
	kRegularHit: packet.ClassRegular, kRegularMiss: packet.ClassRegular,
	kRenewalHit: packet.ClassRegular, kRenewalMiss: packet.ClassRegular}

const (
	mixBurst      = 32
	mixPatternLen = 6400 // 200 bursts; every kind's share is exact over one pattern
	// A slice is a fixed amount of work, 80 patterns, so that every
	// slice and every run with the same seed does identical work and
	// the program's counters repeat exactly.
	mixSliceBursts = 80 * mixPatternLen / mixBurst
	mixSlicePkts   = mixSliceBursts * mixBurst
	mixHitFlows    = 2048
	mixMissFlows   = 1 << 16 // regular w/o entry: each used at most once per slice
	mixRenewFlows  = 1 << 14 // renewal w/o entry
	mixOtherSrcs   = 256     // request and legacy senders
	// The flow cache holds the hit flows plus as many entries again
	// that the miss kinds churn through: a create at the bound evicts
	// the oldest miss entry, whose time-to-live (a few ms of virtual
	// time) has run out by then because the virtual clock advances
	// mixStepNs per burst.
	mixCache  = 2 * mixHitFlows
	mixStepNs = 8000 // virtual ns per burst: a 4 Mpkt/s arrival process
	// Virtual time restarts here every slice (mid-way through a secret
	// period, so no rotation falls inside a slice).
	mixT0 = tvatime.Time(1000*tvatime.Second + 500*tvatime.Millisecond)
	// Fast enough that the request channel's 5% share carries the
	// mix's requests: no queue fills, nothing is dropped.
	mixLinkBps = 10_000_000_000
)

// mixInputs is everything generated from the seed.
type mixInputs struct {
	router  *core.Router
	wire    [nKinds][][]byte
	seeds   [][]byte // full-capability regulars that create the hit flows' entries
	pattern []uint8
}

func setupCoreMix(seed int64) (*mixInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &mixInputs{router: newBenchRouter(mixCache, nil, true)}
	auth := in.router.Authority()
	capFor := func(src packet.Addr) uint64 {
		return capability.Crypto.MakeCap(auth.PreCap(src, dstAddr, mixT0), packet.MaxNKB, packet.MaxTSeconds)
	}
	var err error
	add := func(k uint8, w []byte, e error) {
		if e != nil && err == nil {
			err = e
		}
		in.wire[k] = append(in.wire[k], w)
	}
	for _, src := range addrBlock(rng, 10, mixHitFlows) {
		nonce, capv := rng.Uint64()&packet.NonceMask, capFor(src)
		w, e := wireRegular(src, nonce, capv)
		if e != nil {
			return nil, e
		}
		in.seeds = append(in.seeds, w)
		w, e = wireNonceOnly(src, nonce)
		add(kRegularHit, w, e)
		w, e = wireRenewal(src, nonce, capv)
		add(kRenewalHit, w, e)
	}
	for _, src := range addrBlock(rng, 11, mixMissFlows) {
		w, e := wireRegular(src, rng.Uint64()&packet.NonceMask, capFor(src))
		add(kRegularMiss, w, e)
	}
	for _, src := range addrBlock(rng, 12, mixRenewFlows) {
		w, e := wireRenewal(src, rng.Uint64()&packet.NonceMask, capFor(src))
		add(kRenewalMiss, w, e)
	}
	for _, src := range addrBlock(rng, 13, mixOtherSrcs) {
		w, e := wireRequest(src)
		add(kRequest, w, e)
		w, e = wireLegacy(src+mixOtherSrcs, 0)
		add(kLegacy, w, e)
	}
	if err != nil {
		return nil, err
	}
	for k, pct := range mixPercent {
		for i := 0; i < mixPatternLen*pct/100; i++ {
			in.pattern = append(in.pattern, uint8(k))
		}
	}
	if len(in.pattern) != mixPatternLen {
		return nil, fmt.Errorf("mix shares do not fill the pattern: %d of %d", len(in.pattern), mixPatternLen)
	}
	rng.Shuffle(len(in.pattern), func(i, j int) { in.pattern[i], in.pattern[j] = in.pattern[j], in.pattern[i] })
	return in, nil
}

// newBenchRouter builds a core.Router configured as overlay.NewRouter
// configures its engine, with the same two observers attached (per-
// sender flow accounting and the hop-wait source) unless bare is set.
func newBenchRouter(cacheEntries int, auth *capability.Authority, hooks bool) *core.Router {
	r := core.NewRouter(core.RouterConfig{Suite: capability.Crypto, CacheEntries: cacheEntries,
		TrustBoundary: true, Authority: auth})
	if hooks {
		r.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
		r.HopWait = func() uint32 { return 0 }
	}
	return r
}

// pipeline is the forwarding path as overlay's receive and port loops
// run it, minus the sockets, in one thread.
type pipeline struct {
	router *core.Router
	tva    *sched.TVA
	out    [mixBurst]*packet.Packet
	buf    []byte
	onDrop func(*packet.Packet)

	dropped int64 // scheduler drops (must stay 0)
	wrong   int64 // wrong class or demoted
	encErr  int64 // decode or encode errors
	outPkts int64
}

func newPipeline(r *core.Router) *pipeline {
	p := &pipeline{router: r, buf: make([]byte, 0, 2048)}
	p.onDrop = func(pkt *packet.Packet) {
		p.dropped++
		packet.Release(pkt)
	}
	p.resetSched()
	return p
}

// seed forwards full-capability regulars over an empty cache, which
// creates their flows' entries.
func (p *pipeline) seed(seeds [][]byte, now tvatime.Time) {
	var kinds [mixBurst]uint8
	for i := range kinds {
		kinds[i] = kRegularMiss // what a full-capability regular is to an empty cache
	}
	for i := 0; i < len(seeds); i += mixBurst {
		p.burst(seeds[i:i+mixBurst], kinds[:], now, nil, 0)
	}
}

func (p *pipeline) resetSched() {
	p.tva = sched.NewTVA(sched.TVAConfig{LinkBps: mixLinkBps})
	p.tva.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
}

// burst forwards one burst. kinds[i] labels wires[i] for the class
// check. With a ring, every stage is a span under one burst span.
func (p *pipeline) burst(wires [][]byte, kinds []uint8, now tvatime.Time, ring *spanRing, id int64) {
	var root, h int32
	if ring != nil {
		t := nanotime()
		root = ring.begin(spBurst, -1, id, t)
		h = ring.begin(spUnmarshal, root, id, t)
	}
	b := packet.AcquireBatch()
	for _, w := range wires {
		pkt := packet.AcquirePacket()
		if err := pkt.UnmarshalReuse(w); err != nil {
			p.encErr++
			packet.Release(pkt)
			continue
		}
		pkt.TTL--
		b.Append(pkt)
	}
	if ring != nil {
		h = ring.step(h, spProcess, root, id)
	}
	p.router.ProcessBatch(b, 0, now)
	if ring != nil {
		ring.end(h, nanotime())
	}
	if b.Len() == len(kinds) {
		for i, pkt := range b.Pkts() {
			if b.Class(i) != wantClass[kinds[i]] || (pkt.Hdr != nil && pkt.Hdr.Demoted) {
				p.wrong++
			}
		}
	}
	if ring != nil {
		h = ring.begin(spEnqueue, root, id, nanotime())
	}
	want := p.tva.EnqueueBatch(b, now, p.onDrop)
	packet.ReleaseBatch(b)
	if ring != nil {
		h = ring.step(h, spDequeue, root, id)
	}
	n := 0
	for n < want {
		k, _ := p.tva.DequeueBatch(p.out[n:want], now)
		if k == 0 {
			break
		}
		n += k
	}
	if ring != nil {
		h = ring.step(h, spMarshal, root, id)
	}
	for i := 0; i < n; i++ {
		data, err := p.out[i].Marshal(p.buf[:0])
		packet.Release(p.out[i])
		p.out[i] = nil
		if err != nil {
			p.encErr++
			continue
		}
		p.buf = data[:0]
		p.outPkts++
	}
	if ring != nil {
		t := nanotime()
		ring.end(h, t)
		ring.end(root, t)
	}
}

// mixSlice is one slice's measurements.
type mixSlice struct {
	wallNs, cpuNs int64
	stats         core.RouterStats
	out           int64 // packets that came out encoded
}

// runSlice replays one slice: the cache is emptied and the hit flows'
// entries re-created (untimed), virtual time restarts at mixT0, then
// mixSliceBursts bursts are forwarded and timed; burstNs receives each
// burst's wall time.
func (in *mixInputs) runSlice(p *pipeline, cursor *[nKinds]int, burstNs []int32, ring *spanRing, firstBurst int64) mixSlice {
	in.router.Cache().Flush()
	p.resetSched()
	p.seed(in.seeds, mixT0)
	var wires [mixBurst][]byte
	var kinds [mixBurst]uint8
	// The router's counters are plain fields owned by this thread:
	// zeroed here, they read as the slice's own counts afterwards.
	in.router.Stats = core.RouterStats{}
	out0 := p.outPkts
	cpu0, t0 := procCPU(), nanotime()
	prev := t0
	pat := 0
	for b := 0; b < mixSliceBursts; b++ {
		for i := 0; i < mixBurst; i++ {
			k := in.pattern[pat]
			pat++
			if pat == mixPatternLen {
				pat = 0
			}
			c := cursor[k]
			wires[i], kinds[i] = in.wire[k][c], k
			if c++; c == len(in.wire[k]) {
				c = 0
			}
			cursor[k] = c
		}
		p.burst(wires[:], kinds[:], mixT0.Add(tvatime.Duration(b)*mixStepNs), ring, firstBurst+int64(b))
		t := nanotime()
		burstNs[b] = int32(t - prev)
		prev = t
	}
	return mixSlice{wallNs: prev - t0, cpuNs: procCPU() - cpu0, stats: in.router.Stats, out: p.outPkts - out0}
}

// mixExpected is what one slice must do to the router's counters.
func mixExpected() core.RouterStats {
	n := func(k uint8) uint64 { return uint64(mixSlicePkts * mixPercent[k] / 100) }
	return core.RouterStats{
		Requests:    n(kRequest),
		RegularHit:  n(kRegularHit) + n(kRenewalHit),
		RegularMiss: n(kRegularMiss) + n(kRenewalMiss),
		Renewals:    n(kRenewalHit) + n(kRenewalMiss),
		Legacy:      n(kLegacy),
	}
}

func runCoreMix(c runCfg, rep *report) (*spanRing, error) {
	lc := startLeakCheck()
	in, setups, err := medianSetup(setupRepeats, func() (*mixInputs, error) { return setupCoreMix(c.seed) },
		func(*mixInputs) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setups
	var ring *spanRing
	if c.trace {
		ring = newSpanRing(traceRingSpans, spanNames...)
	}
	p := newPipeline(in.router)
	var cursor [nKinds]int
	burstNs := make([]int32, mixSliceBursts)
	// One untimed slice first: pools, maps and the free lists reach
	// their steady size before anything is measured.
	in.runSlice(p, &cursor, burstNs, nil, 0)
	p.wrong, p.dropped, p.encErr = 0, 0, 0
	want := mixExpected()
	refKpps := 0.0
	if c.trace {
		// A few untraced slices first: what the traced ones are
		// compared with.
		var ref []float64
		for i := 0; i < 5; i++ {
			s := in.runSlice(p, &cursor, burstNs, nil, 0)
			ref = append(ref, float64(mixSlicePkts)/float64(s.wallNs)*1e6)
		}
		refKpps = median(ref)
		p.wrong, p.dropped, p.encErr = 0, 0, 0
	}
	runtime.GC()
	mem0 := markMem()
	var totalWall, totalPkts, totalOut int64
	var hitFrac, demotedFrac float64
	entriesPeak := 0
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for n := 0; time.Now().Before(deadline) || n < 10; n++ {
		s := in.runSlice(p, &cursor, burstNs, ring, int64(n)*mixSliceBursts)
		totalWall += s.wallNs
		totalPkts += mixSlicePkts
		totalOut += s.out
		rep.add("goodput_frac", float64(s.out)/mixSlicePkts)
		rep.add("kpps", float64(mixSlicePkts)/float64(s.wallNs)*1e6)
		rep.add("cpu_us_per_pkt", float64(s.cpuNs)/1e3/mixSlicePkts)
		f := make([]float64, len(burstNs))
		for i, v := range burstNs {
			f[i] = float64(v) / 1e3
		}
		rep.add("lat_p50_us", median(f))
		if s.stats != want {
			rep.violate("slice %d: router counters %+v, the mix gives %+v", n, s.stats, want)
		}
		hitFrac = float64(s.stats.RegularHit) / float64(s.stats.RegularHit+s.stats.RegularMiss)
		demotedFrac = float64(s.stats.Demoted) / mixSlicePkts
		if l := in.router.Cache().Len(); l > entriesPeak {
			entriesPeak = l
		}
	}
	mem1 := markMem()
	rep.attempted = totalPkts
	rep.failed = p.wrong + (totalPkts - totalOut)
	if rep.failed > 0 {
		rep.violate("%d wrong class or demoted, %d dropped, %d codec errors, %d of %d packets out",
			p.wrong, p.dropped, p.encErr, totalOut, totalPkts)
	}
	exact := float64(mixPercent[kRegularHit]+mixPercent[kRenewalHit]) /
		float64(100-mixPercent[kLegacy]-mixPercent[kRequest])
	if hitFrac != exact {
		rep.violate("core.cache_hit_frac %v, the mix gives exactly %v", hitFrac, exact)
	}
	poolDelta := lc.done(rep, true)

	rep.layer["core.cache_hit_frac"] = hitFrac
	rep.layer["core.demoted_frac"] = demotedFrac
	rep.layer["flowcache.entries_peak"] = float64(entriesPeak)
	rep.layer["packet.pool_live_delta"] = float64(poolDelta)
	rep.layer["bench.allocs_per_pkt"] = float64(mem1.mallocs-mem0.mallocs) / float64(totalPkts)
	rep.layer["bench.gc_pause_ms"] = float64(mem1.pauseNs-mem0.pauseNs) / 1e6
	if ring != nil {
		self := ring.selfNs()
		selfPerPkt(rep, self, totalPkts)
		var sum int64
		for _, ns := range self {
			sum += ns
		}
		// The spans must account for the run: within 5% of its wall time.
		rep.layer["bench.self_sum_frac"] = float64(sum) / float64(totalWall)
		rep.layer["bench.trace_overhead_frac"] = 1 - median(rep.e2e["kpps"])/refKpps
	}
	return ring, nil
}

// selfPerPkt turns span self times into per-packet layer costs.
func selfPerPkt(rep *report, self map[string]int64, pkts int64) {
	for layer, spans := range map[string][]string{
		"packet": {"packet.unmarshal", "packet.marshal"},
		"core":   {"core.process"},
		"sched":  {"sched.enqueue", "sched.dequeue"},
		"other":  {"burst"},
	} {
		var ns int64
		for _, n := range spans {
			ns += self[n]
		}
		rep.layer["bench.self_us_per_pkt."+layer] = float64(ns) / 1e3 / float64(pkts)
	}
}

// traceRingSpans is how many spans the trace file keeps (the last
// ones); whole-run totals are kept beside them.
const traceRingSpans = 1 << 15
