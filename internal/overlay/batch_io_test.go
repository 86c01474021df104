package overlay

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// loopbackPair binds two UDP sockets on ip and wraps each in a
// batchConn of the given width; a sends, b receives.
func loopbackPair(t *testing.T, ip net.IP, width int) (a, b *batchConn, aConn, bConn *net.UDPConn) {
	t.Helper()
	mk := func() (*net.UDPConn, *batchConn) {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: ip})
		if err != nil {
			t.Skipf("no UDP socket on %v: %v", ip, err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetReadBuffer(1 << 20) // a whole test burst waits here before it is read
		bc, err := newBatchConn(conn, width)
		if err != nil {
			t.Fatal(err)
		}
		return conn, bc
	}
	aConn, a = mk()
	bConn, b = mk()
	return a, b, aConn, bConn
}

// datagrams builds one deterministic, pairwise distinct payload per
// length.
func datagrams(lengths ...int) [][]byte {
	pkts := make([][]byte, len(lengths))
	for i, n := range lengths {
		pkts[i] = make([]byte, n)
		for j := range pkts[i] {
			pkts[i][j] = byte(i*131 + j*7)
		}
	}
	return pkts
}

// expectDatagrams reads from b until every datagram of want has
// arrived, in order and byte for byte (possibly split across calls —
// recvmmsg returns what is ready, and the fallback returns one per
// call), then checks nothing else is queued behind them.
func expectDatagrams(t *testing.T, b *batchConn, bConn *net.UDPConn, want [][]byte) {
	t.Helper()
	bConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got := 0; got < len(want); {
		n, err := b.recvBatch()
		if err != nil {
			t.Fatalf("recvBatch after %d of %d: %v", got, len(want), err)
		}
		for i := 0; i < n; i++ {
			if got == len(want) {
				t.Fatalf("more than the %d datagrams sent arrived", len(want))
			}
			if !bytes.Equal(b.buf(i), want[got]) {
				t.Fatalf("datagram %d: got %d bytes, want %d (or same size, different bytes)",
					got, len(b.buf(i)), len(want[got]))
			}
			got++
		}
	}
	bConn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := b.recvBatch(); err == nil {
		t.Fatalf("%d unexpected extra datagrams", n)
	}
}

// segmentOffload reports whether sendBatch coalesces here: the
// platform has the segmented builder and this kernel accepts a
// UDP_SEGMENT message. A refusing kernel is logged, not failed, so an
// old CI kernel is visible while the delivery checks still run.
func segmentOffload(t *testing.T) bool {
	t.Helper()
	if runtime.GOOS != "linux" || (runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64") {
		return false
	}
	a, b, _, bConn := loopbackPair(t, net.IPv4(127, 0, 0, 1), 2)
	pkts := datagrams(40, 40)
	sent, msgs, err := a.sendBatch(pkts, bConn.LocalAddr().(*net.UDPAddr))
	if err != nil || sent != 2 {
		t.Fatalf("probe: sent %d, err %v", sent, err)
	}
	expectDatagrams(t, b, bConn, pkts)
	if msgs != 1 {
		t.Log("kernel refuses UDP_SEGMENT: egress runs are sent as plain messages")
		return false
	}
	return true
}

func repeat(n, length int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = length
	}
	return out
}

// TestBatchConnRoundTrip drives the raw burst I/O layer over real
// loopback sockets: whatever sendBatch makes of a burst — one
// segmented message per equal-length run, split at the segment and
// byte caps, several sendmmsg rounds when the burst is wider than the
// batchConn — the receiver must see the same datagrams: count, order,
// sizes and bytes. Where the kernel takes segmented messages the
// message count is pinned too.
func TestBatchConnRoundTrip(t *testing.T) {
	offload := segmentOffload(t)
	cases := []struct {
		name     string
		width    int
		lengths  []int
		wantMsgs int // with segment offload; without, messages == datagrams
	}{
		{"mixed_runs", 16, []int{40, 40, 40, 1000, 1000, 40, 7, 7, 7, 7, 1200}, 5},
		{"run_of_64", 64, repeat(64, 200), 1},
		{"over_segment_cap", 128, repeat(100, 40), 2},
		{"over_byte_cap", 64, repeat(60, 1400), 2}, // 84 000 bytes: 46 + 14
		{"run_of_one", 8, []int{300}, 1},
		{"wider_than_conn", 4, repeat(10, 90), 3}, // 4 + 4 + 2
	}
	families := []struct {
		name string
		ip   net.IP
	}{{"ip4", net.IPv4(127, 0, 0, 1)}, {"ip6", net.IPv6loopback}}
	for _, fam := range families {
		for _, c := range cases {
			t.Run(fam.name+"/"+c.name, func(t *testing.T) {
				a, b, _, bConn := loopbackPair(t, fam.ip, c.width)
				pkts := datagrams(c.lengths...)
				sent, msgs, err := a.sendBatch(pkts, bConn.LocalAddr().(*net.UDPAddr))
				if err != nil || sent != len(pkts) {
					t.Fatalf("sendBatch sent %d of %d, err %v", sent, len(pkts), err)
				}
				expectDatagrams(t, b, bConn, pkts)
				want := len(pkts)
				if offload {
					want = c.wantMsgs
				}
				if msgs != want {
					t.Errorf("%d datagrams went out in %d messages, want %d", len(pkts), msgs, want)
				}
			})
		}
	}
}

// TestBatchHeadOfLine: a datagram the kernel cannot send (one byte
// past the largest UDP payload) in the middle of a burst costs only
// itself. Its neighbours on both sides arrive and the count says so.
func TestBatchHeadOfLine(t *testing.T) {
	a, b, _, bConn := loopbackPair(t, net.IPv4(127, 0, 0, 1), 8)
	pkts := datagrams(100, 100, 65508, 100, 100)
	sent, _, err := a.sendBatch(pkts, bConn.LocalAddr().(*net.UDPAddr))
	if sent != 4 || err == nil {
		t.Fatalf("sendBatch sent %d (want 4), err %v (want the oversize datagram's)", sent, err)
	}
	expectDatagrams(t, b, bConn, append(pkts[:2:2], pkts[3:]...))
}

// shardWorkload builds a deterministic stream of mixed packets (fresh
// requests and capability-carrying regular packets across many flows)
// for the shard equivalence tests.
func shardWorkload(auth *capability.Authority, n int, now tvatime.Time) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	dst := packet.Addr(1)
	for i := range pkts {
		src := packet.Addr(1000 + i%97)
		if i%3 == 0 {
			h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoRaw}
			pkts[i] = &packet.Packet{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
				Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}
			continue
		}
		pre := auth.PreCap(src, dst, now)
		cap := capability.Crypto.MakeCap(pre, packet.MaxNKB, packet.MaxTSeconds)
		h := &packet.CapHdr{Kind: packet.KindRegular, Proto: packet.ProtoRaw,
			Nonce: (uint64(i)*2654435761 + 1) & packet.NonceMask, NKB: packet.MaxNKB, TSec: packet.MaxTSeconds,
			Caps: []uint64{cap}}
		pkts[i] = &packet.Packet{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoRaw,
			Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}
	}
	return pkts
}

// runSharded pushes the workload through a shard engine in bursts of
// burstLen and returns the class sequence.
func runSharded(t *testing.T, shards int, pkts []*packet.Packet, now tvatime.Time, auth *capability.Authority) []packet.Class {
	t.Helper()
	base := core.RouterConfig{Authority: auth}
	e := newShardEngine(shards, func() *core.Router { return core.NewRouter(base) })
	defer e.close()
	classes := make([]packet.Class, 0, len(pkts))
	const burstLen = 16
	b := packet.NewBatch(burstLen)
	for i := 0; i < len(pkts); i += burstLen {
		end := i + burstLen
		if end > len(pkts) {
			end = len(pkts)
		}
		for _, p := range pkts[i:end] {
			c := *p
			h := *p.Hdr
			c.Hdr = &h
			b.Append(&c)
		}
		e.process(b, now)
		for j := 0; j < b.Len(); j++ {
			classes = append(classes, b.Class(j))
		}
		b.Reset()
	}
	return classes
}

// TestShardedProcessEquivalence checks the engine classifies exactly
// as one core.Router would, whether it runs inline (one worker) or
// scatters across four (caches are per-shard but flows hash wholly
// onto one shard, so no flow observes a difference), and that the
// sharded run is deterministic.
func TestShardedProcessEquivalence(t *testing.T) {
	auth := capability.NewAuthority(0)
	now := tvatime.FromSeconds(1)
	pkts := shardWorkload(auth, 400, now)

	single := core.NewRouter(core.RouterConfig{Authority: auth})
	want := make([]packet.Class, len(pkts))
	for i, p := range pkts {
		c := *p
		h := *p.Hdr
		c.Hdr = &h
		want[i] = single.Process(&c, 0, now)
	}

	inline := runSharded(t, 1, pkts, now, auth)
	got := runSharded(t, 4, pkts, now, auth)
	again := runSharded(t, 4, pkts, now, auth)
	for i := range want {
		if inline[i] != want[i] {
			t.Fatalf("packet %d: inline class %v, single %v", i, inline[i], want[i])
		}
		if got[i] != want[i] {
			t.Fatalf("packet %d: sharded class %v, single %v", i, got[i], want[i])
		}
		if again[i] != got[i] {
			t.Fatalf("packet %d: sharded run not deterministic: %v vs %v", i, again[i], got[i])
		}
	}
}
