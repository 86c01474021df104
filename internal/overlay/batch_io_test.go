package overlay

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"
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
