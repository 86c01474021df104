package overlay

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

// pacedWidths are the burst widths the paced-port tables run at: one
// datagram, a small burst, and sock_flood's width, where a burst of
// 32 × 1000 B is 12.8 ms of a 20 Mb/s link.
var pacedWidths = []int{1, 8, 32}

// pacedPort is one paced port of a router with no traffic of its own,
// fed by the test in the receive goroutine's place (port.enqueue)
// toward a sink the test reads.
type pacedPort struct {
	p    *port
	sink *net.UDPConn
	dst  packet.Addr

	// Read by the sink goroutine: wire bytes received, and each regular
	// packet's enqueue-to-arrival delay.
	bytes atomic.Int64
	mu    sync.Mutex
	lat   []time.Duration
}

func newPacedPort(t *testing.T, batch int, bps int64) *pacedPort {
	t.Helper()
	r, err := NewRouter(RouterConfig{Listen: "127.0.0.1:0", LinkBps: bps, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	t.Cleanup(func() { sink.Close() })
	sink.SetReadBuffer(1 << 20)
	pp := &pacedPort{sink: sink, dst: packet.AddrFrom(10, 0, 0, 3)}
	if err := r.AddRoute(pp.dst, sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	pp.p = r.route(pp.dst)
	return pp
}

// read counts what reaches the sink until it is closed. A regular
// packet's payload leads with its enqueue time in Unix nanoseconds.
func (pp *pacedPort) read() {
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := pp.sink.ReadFromUDP(buf)
		if err != nil {
			return
		}
		at := time.Now()
		pp.bytes.Add(int64(n))
		if n >= packet.OuterHdrLen+8 && packet.Class(buf[1]) == packet.ClassRegular {
			sent := int64(binary.BigEndian.Uint64(buf[packet.OuterHdrLen:]))
			pp.mu.Lock()
			pp.lat = append(pp.lat, at.Sub(time.Unix(0, sent)))
			pp.mu.Unlock()
		}
	}
}

// feed enqueues n packets of size wire bytes and the given class as one
// run, the way dispatch hands a burst's same-port run to the port.
func (pp *pacedPort) feed(n, size int, class packet.Class) {
	run := packet.NewBatch(n)
	for i := 0; i < n; i++ {
		pkt := packet.AcquirePacket()
		pkt.Src, pkt.Dst, pkt.TTL, pkt.Proto = 1, pp.dst, 9, packet.ProtoRaw
		payload := make([]byte, size-packet.OuterHdrLen)
		binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
		pkt.Payload, pkt.Size, pkt.Class = payload, size, class
		run.Append(pkt)
	}
	pp.p.enqueue(run, tvatime.WallClock{}.Now())
}

// flood fills the legacy queue (32 KB) with 1000-byte packets, then
// feeds perTick more every millisecond for ticks milliseconds, calling
// each(tick) first. A loaded machine drops ticks, so callers that
// depend on the cadence measure the one they got.
func (pp *pacedPort) flood(ticks, perTick int, each func(tick int)) {
	pp.feed(40, 1000, packet.ClassLegacy)
	tk := time.NewTicker(time.Millisecond)
	defer tk.Stop()
	for tick := 0; tick < ticks; tick++ {
		if each != nil {
			each(tick)
		}
		pp.feed(perTick, 1000, packet.ClassLegacy)
		<-tk.C
	}
}

// TestPacedPortRate: over a backlogged 300 ms window the port puts
// LinkBps on the wire, within 5 %, at every width: credit-sized bursts
// keep the emulated link's rate exact. The flood offers 2.4× the link,
// so the legacy queue overflows throughout.
func TestPacedPortRate(t *testing.T) {
	const bps = 10_000_000
	for _, batch := range pacedWidths {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			pp := newPacedPort(t, batch, bps)
			go pp.read()
			var b0, d0 int64
			var t0 time.Time
			const warm, window = 50, 300
			pp.flood(warm+window, 3, func(tick int) {
				if tick == warm {
					t0, b0, d0 = time.Now(), pp.bytes.Load(), int64(pp.p.Dropped.Load())
				}
			})
			got := float64(pp.bytes.Load()-b0) * 8 / time.Since(t0).Seconds()
			if drops := int64(pp.p.Dropped.Load()) - d0; drops == 0 {
				t.Fatalf("nothing dropped: the window was not backlogged")
			}
			if got < 0.95*bps || got > 1.05*bps {
				t.Errorf("sent %.2f Mb/s over a backlogged window of a %.0f Mb/s link", got/1e6, float64(bps)/1e6)
			}
		})
	}
}

// TestPacedPortBurst: with arrivals every millisecond (2× a 20 Mb/s
// link), each wake-up sends what the link drained since the last one —
// about 2.5 datagrams, at most the credit of one arrival gap plus the
// packet that overruns it (4 at 1 ms) — not a Batch-sized burst that
// the port then has to sleep off.
func TestPacedPortBurst(t *testing.T) {
	const bps, size = 20_000_000, 1000
	for _, batch := range pacedWidths {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			pp := newPacedPort(t, batch, bps)
			go pp.read()
			const warm, window = 50, 200
			var bursts0, pkts0 uint64
			var t0 time.Time
			pp.flood(warm+window, 5, func(tick int) {
				if tick == warm {
					t0, bursts0, pkts0 = time.Now(), pp.p.TxBursts.Load(), pp.p.TxBurstPkts.Load()
				}
			})
			bursts, pkts := pp.p.TxBursts.Load()-bursts0, pp.p.TxBurstPkts.Load()-pkts0
			if bursts == 0 {
				t.Fatal("no bursts")
			}
			gap := time.Since(t0) / window
			credit := gap.Seconds() * bps / 8 / size
			fill := float64(pkts) / float64(bursts)
			t.Logf("%d datagrams in %d bursts: %.2f per burst; arrivals every %v, %.2f datagrams of credit each",
				pkts, bursts, fill, gap, credit)
			if bound := max(4, credit+1.5); fill > bound {
				t.Errorf("%.2f datagrams per burst, want at most the per-wake credit (≤ %.2f)", fill, bound)
			}
		})
	}
}

// TestPacedPortPriority is the paper's claim at one port: a regular
// packet that arrives behind a full legacy backlog (the flood offers
// 2× the link, so the legacy queue overflows throughout) leaves within
// 2 ms (median of nine), however wide the burst — the scheduler puts
// it first, and the port sends it at the wake-up its arrival causes.
func TestPacedPortPriority(t *testing.T) {
	for _, batch := range pacedWidths {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			pp := newPacedPort(t, batch, 20_000_000)
			go pp.read()
			const warm, samples, every = 50, 9, 25
			var d0 uint64
			pp.flood(warm+samples*every, 5, func(tick int) {
				if tick == warm {
					d0 = pp.p.Dropped.Load()
				}
				if tick >= warm && (tick-warm)%every == every/2 {
					pp.feed(1, 200, packet.ClassRegular)
				}
			})
			if pp.p.Dropped.Load() == d0 {
				t.Fatal("nothing dropped while sampling: the legacy queue was never full")
			}
			time.Sleep(20 * time.Millisecond)
			pp.mu.Lock()
			lat := append([]time.Duration(nil), pp.lat...)
			pp.mu.Unlock()
			if len(lat) != samples {
				t.Fatalf("%d of %d regular packets arrived", len(lat), samples)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if med := lat[samples/2]; med > 2*time.Millisecond {
				t.Errorf("regular packets behind a full legacy queue waited %v (median), want ≤ 2ms; all: %v", med, lat)
			}
		})
	}
}

// TestPacedPortClose: Close does not wait out the link. 64 × 1400 B
// queued on a 1 Mb/s port at Batch 64 is 0.72 s of serialization; the
// port holds no burst it must sleep through, so Close returns at once,
// every goroutine is gone, and the queued packets are back in the pool.
func TestPacedPortClose(t *testing.T) {
	goroutines, live := runtime.NumGoroutine(), packet.Live()
	r, err := NewRouter(RouterConfig{Listen: "127.0.0.1:0", LinkBps: 1_000_000, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer sink.Close()
	// Four destinations, so all 64 fit the per-destination regular queues.
	run := packet.NewBatch(64)
	for i := 0; i < 64; i++ {
		dst := packet.AddrFrom(10, 0, 0, byte(1+i%4))
		if i < 4 {
			if err := r.AddRoute(dst, sink.LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
		pkt := packet.AcquirePacket()
		pkt.Src, pkt.Dst, pkt.TTL, pkt.Proto = 1, dst, 9, packet.ProtoRaw
		pkt.Payload = make([]byte, 1400-packet.OuterHdrLen)
		pkt.Size, pkt.Class = 1400, packet.ClassRegular
		run.Append(pkt)
	}
	p := r.route(packet.AddrFrom(10, 0, 0, 1))
	p.enqueue(run, r.clock.Now())
	if p.Dropped.Load() != 0 {
		t.Fatalf("%d of 64 refused", p.Dropped.Load())
	}
	for deadline := time.Now().Add(2 * time.Second); p.TxBursts.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the port never sent")
		}
	}

	start := time.Now()
	r.Close()
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("Close took %v with a backlog on a 1 Mb/s port, want < 50ms", d)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", goroutines, runtime.NumGoroutine())
		}
	}
	if got := packet.Live(); got != live {
		t.Errorf("pool not back to baseline after Close: %d live, started at %d", got, live)
	}
}
