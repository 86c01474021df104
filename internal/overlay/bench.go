// Forwarding-capacity harness for Table 1 and Fig. 12 of the paper:
// pregenerated workloads of each packet type driven through the full
// userspace forwarding path (unmarshal → capability processing →
// marshal), either per-op (Table 1 benchmarks) or as a paced
// producer/consumer pipeline measuring peak output rate versus offered
// input rate (Fig. 12).
package overlay

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/flowstats"
	"tva/internal/metrics"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// PacketKind enumerates the workload types of Table 1 / Fig. 12.
type PacketKind int

// Workload kinds, in Table 1's order.
const (
	KindLegacyIP PacketKind = iota
	KindRequestPkt
	KindRegularWithEntry
	KindRegularNoEntry
	KindRenewalWithEntry
	KindRenewalNoEntry
)

// String implements fmt.Stringer.
func (k PacketKind) String() string {
	switch k {
	case KindLegacyIP:
		return "legacy IP"
	case KindRequestPkt:
		return "request"
	case KindRegularWithEntry:
		return "regular w/ entry"
	case KindRegularNoEntry:
		return "regular w/o entry"
	case KindRenewalWithEntry:
		return "renewal w/ entry"
	case KindRenewalNoEntry:
		return "renewal w/o entry"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kinds lists all workload kinds in Table 1's order.
var Kinds = []PacketKind{
	KindLegacyIP, KindRequestPkt, KindRegularWithEntry,
	KindRegularNoEntry, KindRenewalWithEntry, KindRenewalNoEntry,
}

// Workload is a pregenerated stream of marshaled packets of one kind,
// paired with the router they validate against. "With entry" kinds
// cycle over flows whose cache entries were seeded at build time;
// "no entry" kinds cycle over more flows than the (small) cache holds,
// so the entry is always gone again by the time a flow comes around.
type Workload struct {
	Kind   PacketKind
	Router *core.Router

	pkts    [][]byte
	batches [][][]byte // pkts grouped for the Fig. 12 pipeline
	seeds   [][]byte   // cache-seeding regulars for "with entry" kinds
	suite   capability.Suite
	i       int
	buf     []byte
	scratch packet.Packet // reusable decode target for ForwardOne
}

// workload sizing: hit kinds spread byte-count across enough flows
// that no authorization exhausts mid-run; miss kinds exceed the cache.
const (
	hitFlows  = 1 << 11
	missFlows = 1 << 16
	missCache = 256
)

// grant parameters: the largest expressible authorization, so Table 1
// loops never exhaust an entry.
const (
	wlNKB  = packet.MaxNKB
	wlTSec = packet.MaxTSeconds
)

// NewWorkload builds a workload of the given kind under the hash
// suite (capability.Crypto reproduces the paper's AES+SHA1 path).
func NewWorkload(kind PacketKind, suite capability.Suite) *Workload {
	w := &Workload{Kind: kind, suite: suite, buf: make([]byte, 0, 512)}
	cacheSize := hitFlows * 2
	if kind == KindRegularNoEntry || kind == KindRenewalNoEntry {
		cacheSize = missCache
	}
	w.Router = core.NewRouter(core.RouterConfig{
		Suite:         suite,
		CacheEntries:  cacheSize,
		TrustBoundary: true,
	})
	now := tvatime.WallClock{}.Now()
	rng := rand.New(rand.NewSource(99))
	dst := packet.Addr(1)

	marshal := func(p *packet.Packet) []byte {
		data, err := p.Marshal(nil)
		if err != nil {
			panic("overlay: workload marshal: " + err.Error())
		}
		return data
	}
	capFor := func(src packet.Addr) uint64 {
		pre := w.Router.Authority().PreCap(src, dst, now)
		return suite.MakeCap(pre, wlNKB, wlTSec)
	}

	switch kind {
	case KindLegacyIP:
		p := &packet.Packet{Src: 2, Dst: dst, TTL: 64, Proto: packet.ProtoRaw}
		p.Size = packet.OuterHdrLen
		w.pkts = [][]byte{marshal(p)}

	case KindRequestPkt:
		h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoRaw}
		p := &packet.Packet{Src: 2, Dst: dst, TTL: 64, Proto: packet.ProtoRaw, Hdr: h}
		p.Size = packet.OuterHdrLen + h.WireSize()
		w.pkts = [][]byte{marshal(p)}

	case KindRegularWithEntry, KindRenewalWithEntry:
		kindWire := packet.KindNonceOnly
		if kind == KindRenewalWithEntry {
			kindWire = packet.KindRenewal
		}
		w.pkts = make([][]byte, hitFlows)
		for i := range w.pkts {
			src := packet.Addr(1000 + i)
			cap := capFor(src)
			nonce := rng.Uint64() & packet.NonceMask
			// Seed the cache entry with a first regular packet.
			seedHdr := &packet.CapHdr{Kind: packet.KindRegular, Proto: packet.ProtoRaw,
				Nonce: nonce, NKB: wlNKB, TSec: wlTSec, Caps: []uint64{cap}}
			seed := &packet.Packet{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
				Hdr: seedHdr, Size: packet.OuterHdrLen + seedHdr.WireSize()}
			// Keep the seed's wire form: MeasureForwardingBatch replays
			// it to warm any router sharing this workload's authority.
			w.seeds = append(w.seeds, marshal(seed))
			if got := w.Router.Process(seed, 0, now); got != packet.ClassRegular {
				panic("overlay: workload seed not accepted: " + got.String())
			}
			h := &packet.CapHdr{Kind: kindWire, Proto: packet.ProtoRaw, Nonce: nonce}
			if kindWire == packet.KindRenewal {
				h.NKB, h.TSec = wlNKB, wlTSec
				h.Caps = []uint64{cap}
			}
			p := &packet.Packet{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
				Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}
			w.pkts[i] = marshal(p)
		}

	case KindRegularNoEntry, KindRenewalNoEntry:
		kindWire := packet.KindRegular
		if kind == KindRenewalNoEntry {
			kindWire = packet.KindRenewal
		}
		w.pkts = make([][]byte, missFlows)
		for i := range w.pkts {
			src := packet.Addr(1_000_000 + i)
			h := &packet.CapHdr{Kind: kindWire, Proto: packet.ProtoRaw,
				Nonce: rng.Uint64() & packet.NonceMask,
				NKB:   wlNKB, TSec: wlTSec, Caps: []uint64{capFor(src)}}
			p := &packet.Packet{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
				Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}
			w.pkts[i] = marshal(p)
		}
	}
	// Group the workload into fixed-size batches (cycling as needed)
	// so the Fig. 12 ring always amortizes channel overhead over 64
	// packets regardless of workload cycle length.
	const batchSize = 64
	nBatches := (len(w.pkts) + batchSize - 1) / batchSize
	k := 0
	for b := 0; b < nBatches; b++ {
		batch := make([][]byte, batchSize)
		for j := range batch {
			batch[j] = w.pkts[k]
			k++
			if k == len(w.pkts) {
				k = 0
			}
		}
		w.batches = append(w.batches, batch)
	}
	return w
}

// ForwardOne runs the full forwarding path for the next workload
// packet and reports whether it kept its class (i.e. was not demoted).
func (w *Workload) ForwardOne(now tvatime.Time) bool {
	raw := w.pkts[w.i]
	w.i++
	if w.i == len(w.pkts) {
		w.i = 0
	}
	pkt := &w.scratch
	if err := pkt.UnmarshalReuse(raw); err != nil {
		return false
	}
	pkt.TTL--
	class := w.Router.Process(pkt, 0, now)
	out, err := pkt.Marshal(w.buf[:0])
	if err != nil {
		return false
	}
	w.buf = out[:0]
	return !(pkt.Hdr != nil && pkt.Hdr.Demoted) || class == packet.ClassRequest
}

// Len returns the workload's cycle length.
func (w *Workload) Len() int { return len(w.pkts) }

// BenchTickEvery spaces registry samples through a Table 1 loop: often
// enough that Tick's cost is part of the measured steady state, rare
// enough that per-packet numbers stay per-packet.
const BenchTickEvery = 1024

// BenchMetrics threads the streaming observability layer through a
// Table 1 loop: every forwarded packet lands two counter hits, one
// sketch observation, and a per-sender flowstats touch (heavy-hitter
// table + count-min sketch, attached to the workload router exactly
// as the exp harness and overlay attach theirs), and a live registry
// is sampled on a virtual clock every BenchTickEvery packets. The
// bench guard runs Table 1 with this harness attached, so its
// 0 allocs/op rows prove the metrics instruments ride the forwarding
// path for free — the dynamic twin of the //tva:hotpath annotations
// on Record/Set/Observe.
type BenchMetrics struct {
	Reg *metrics.Registry

	forwarded metrics.Counter
	demoted   metrics.Counter
	wire      metrics.Sketch
	now       tvatime.Time
}

// NewBenchMetrics builds and seals a registry over w's router. The
// first Tick happens here, so every later Tick is allocation-free.
func NewBenchMetrics(w *Workload) *BenchMetrics {
	m := &BenchMetrics{Reg: metrics.New(64), now: tvatime.FromSeconds(1)}
	must := func(err error) {
		if err != nil {
			panic("overlay: bench metrics: " + err.Error())
		}
	}
	must(m.Reg.CounterVar(metrics.NameBenchForwarded, nil,
		"Packets pushed through the Table 1 forwarding loop.", &m.forwarded))
	must(m.Reg.CounterVar(metrics.NameBenchDemoted, nil,
		"Forwarded packets that lost their class.", &m.demoted))
	must(m.Reg.SketchQuantiles(metrics.NameBenchWireBytes, nil,
		"Wire size of forwarded packets.", &m.wire, 0.5, 0.99))
	cache := w.Router.Cache()
	must(m.Reg.Gauge(metrics.NameFlowCacheEntries, nil,
		"Live flow-cache entries at the bench router.",
		func() float64 { return float64(cache.Len()) }))
	// Per-sender accounting on the measured path: the router observes
	// every processed packet into this collector, so Table 1 numbers
	// include the flowstats cost (and the alloc guard proves it's 0).
	flows := flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
	w.Router.Flows = flows
	must(m.Reg.Gauge(metrics.NameFlowTrackedSenders, nil,
		"Heavy-hitter table entries at the bench router.",
		func() float64 { return float64(flows.Tracked()) }))
	must(m.Reg.Counter(metrics.NameFlowBytes, nil,
		"Total bytes observed by the bench router's flow accounting.",
		func() float64 { return float64(flows.TotalBytes()) }))
	m.Reg.Tick(m.now)
	return m
}

// Observe records one forwarding operation into the instruments.
//
//tva:hotpath
func (m *BenchMetrics) Observe(kept bool, wireBytes int64) {
	m.forwarded.Record(1)
	if !kept {
		m.demoted.Record(1)
	}
	m.wire.Observe(wireBytes)
}

// Tick advances the virtual clock one interval and samples the
// registry — rates, EWMAs, and the gauge closure included.
func (m *BenchMetrics) Tick() {
	m.now = m.now.Add(tvatime.Millisecond)
	m.Reg.Tick(m.now)
}

// ForwardOneObserved is ForwardOne with the streaming instruments on
// the path, for instrumented Table 1 runs.
func (w *Workload) ForwardOneObserved(now tvatime.Time, m *BenchMetrics) bool {
	wire := int64(len(w.pkts[w.i]))
	kept := w.ForwardOne(now)
	m.Observe(kept, wire)
	return kept
}

// MeasureForwarding offers inputPPS of the workload's packets to a
// single forwarding goroutine through a bounded ring (drop-on-full,
// like a NIC) for dur, and returns the measured output rate in
// packets/second — one point of Fig. 12.
func MeasureForwarding(w *Workload, inputPPS int, dur time.Duration) (outputPPS float64) {
	// Packets travel in pregenerated batches so ring overhead stays
	// far below per-packet processing cost (a NIC's descriptor ring
	// amortizes the same way).
	ring := make(chan [][]byte, 64)
	done := make(chan struct{})
	var forwarded int64

	go func() {
		defer close(done)
		clock := tvatime.WallClock{}
		now := clock.Now()
		n := 0
		var scratch packet.Packet
		buf := make([]byte, 0, 512)
		for batch := range ring {
			for _, raw := range batch {
				pkt := &scratch
				if err := pkt.UnmarshalReuse(raw); err != nil {
					continue
				}
				pkt.TTL--
				w.Router.Process(pkt, 0, now)
				if out, err := pkt.Marshal(buf[:0]); err == nil {
					buf = out[:0]
					forwarded++
				}
			}
			if n++; n%64 == 0 {
				now = clock.Now() // refresh the clock off the hot path
			}
		}
	}()

	// Paced producer: a 1 ms tick approximates a NIC delivering at the
	// offered rate, full ring = input drop.
	const tick = time.Millisecond
	batchLen := len(w.batches[0])
	perTick := float64(inputPPS) / 1000 / float64(batchLen)
	start := time.Now()
	next := start
	i := 0
	var owed float64
	for time.Since(start) < dur {
		owed += perTick
		for ; owed >= 1; owed-- {
			select {
			case ring <- w.batches[i]:
			default: // ring full: input drop
			}
			i++
			if i == len(w.batches) {
				i = 0
			}
		}
		next = next.Add(tick)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	close(ring)
	<-done
	elapsed := time.Since(start).Seconds()
	return float64(forwarded) / elapsed
}

// BatchSizes are the burst widths of the batched-forwarding series
// (the fig12_batch section of BENCH_*.json snapshots).
var BatchSizes = []int{1, 8, 32, 128}

// MeasureForwardingBatch measures the production overlay data path end
// to end over real UDP on loopback: a driver socket offers workload
// packets to a full overlay.Router built with RouterConfig.Batch set
// to batchSize, routed straight back to the driver. Every size runs
// the same loops (receiveLoop → port.enqueue → portLoop); batchSize 1
// is their narrowest setting (one read syscall, one scheduler
// crossing, one write syscall, and a cross-goroutine handoff per
// packet) and larger sizes amortize each of those over a
// recvmmsg/sendmmsg burst, so the ratio between sizes is exactly
// what burst width buys on this machine. The driver keeps
// a window of batchSize packets in flight (a NIC ring of that depth),
// refilling as forwarded packets land, and returns the sustained rate
// in packets/second. A non-nil error means the window stalled (a
// packet was dropped) and the number is a lower bound; callers retry.
func MeasureForwardingBatch(w *Workload, batchSize int, dur time.Duration) (outputPPS float64, err error) {
	r, err := NewRouter(RouterConfig{
		Listen: "127.0.0.1:0",
		Core: core.RouterConfig{
			Suite:         w.suite,
			CacheEntries:  hitFlows * 2,
			TrustBoundary: true,
			// Sharing the workload's authority makes its pregenerated
			// capabilities (and cache-seeding regulars) valid here.
			Authority: w.Router.Authority(),
		},
		Batch: batchSize,
	})
	if err != nil {
		return 0, err
	}
	defer r.Close()
	dconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer dconn.Close()
	dbc, err := newBatchConn(dconn, batchSize)
	if err != nil {
		return 0, err
	}
	rAddr := r.Addr()
	if err := r.AddRoute(packet.Addr(1), dconn.LocalAddr().String()); err != nil {
		return 0, err
	}
	recv := func() (int, error) {
		dconn.SetReadDeadline(time.Now().Add(2 * time.Second))
		return dbc.recvBatch()
	}

	// Warm the router's flow cache so "with entry" kinds hit, exactly
	// as the workload's own router was seeded at build time.
	for i := 0; i < len(w.seeds); i += batchSize {
		end := i + batchSize
		if end > len(w.seeds) {
			end = len(w.seeds)
		}
		if _, _, serr := dbc.sendBatch(w.seeds[i:end], rAddr); serr != nil {
			return 0, serr
		}
		for need := end - i; need > 0; {
			n, rerr := recv()
			if rerr != nil {
				return 0, fmt.Errorf("cache seeding stalled: %w", rerr)
			}
			need -= n
		}
	}

	burst := make([][]byte, batchSize)
	idx := 0
	refill := func(k int) error {
		for i := 0; i < k; i++ {
			burst[i] = w.pkts[idx]
			idx++
			if idx == len(w.pkts) {
				idx = 0
			}
		}
		_, _, serr := dbc.sendBatch(burst[:k], rAddr)
		return serr
	}
	var forwarded int64
	start := time.Now()
	if err = refill(batchSize); err == nil {
		for time.Since(start) < dur {
			n, rerr := recv()
			if rerr != nil {
				err = fmt.Errorf("window stalled after %d packets: %w", forwarded, rerr)
				break
			}
			forwarded += int64(n)
			if err = refill(n); err != nil {
				break
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	return float64(forwarded) / elapsed, err
}
