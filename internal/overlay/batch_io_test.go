package overlay

import (
	"fmt"
	"net"
	"testing"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// TestBatchConnRoundTrip drives the raw burst I/O layer: a burst of
// datagrams sent with sendBatch must all arrive, in order, through
// recvBatch (possibly split across calls — recvmmsg returns what is
// ready, and the fallback returns one per call).
func TestBatchConnRoundTrip(t *testing.T) {
	mk := func() (*net.UDPConn, *batchConn) {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		bc, err := newBatchConn(conn, 8)
		if err != nil {
			t.Fatal(err)
		}
		return conn, bc
	}
	aConn, a := mk()
	bConn, b := mk()
	_ = aConn

	const total = 5
	pkts := make([][]byte, total)
	for i := range pkts {
		pkts[i] = []byte(fmt.Sprintf("datagram-%d", i))
	}
	sent, err := a.sendBatch(pkts, bConn.LocalAddr().(*net.UDPAddr))
	if err != nil || sent != total {
		t.Fatalf("sendBatch sent %d, err %v", sent, err)
	}

	bConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := 0
	for got < total {
		n, err := b.recvBatch()
		if err != nil {
			t.Fatalf("recvBatch after %d: %v", got, err)
		}
		for i := 0; i < n; i++ {
			want := fmt.Sprintf("datagram-%d", got)
			if string(b.buf(i)) != want {
				t.Fatalf("datagram %d = %q, want %q", got, b.buf(i), want)
			}
			got++
		}
	}
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
		cap := capability.Fast.MakeCap(pre, packet.MaxNKB, packet.MaxTSeconds)
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
	base := core.RouterConfig{Suite: capability.Fast, Authority: auth}
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
	suite := capability.Fast
	auth := capability.NewAuthority(suite, 0)
	now := tvatime.FromSeconds(1)
	pkts := shardWorkload(auth, 400, now)

	single := core.NewRouter(core.RouterConfig{Suite: suite, Authority: auth})
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
