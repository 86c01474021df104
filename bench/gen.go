package main

import (
	"fmt"
	"math/rand"

	"tva/internal/packet"
)

// Input generation. Everything the system under test receives is made
// here from the seed: flow addresses, nonces, the order of the packet
// mix and the send schedule. The program sees only these bytes.

// dstAddr is the one destination all generated traffic is addressed
// to (regular traffic is fair-queued per destination, so one
// destination means one queue: FIFO order, no drops by construction).
const dstAddr = packet.Addr(1)

// addrBlock returns n consecutive sender addresses inside the /8
// `net`, starting at a seed-chosen offset, so that two roles (hit
// flows, miss flows, attackers ...) given different nets never collide.
func addrBlock(rng *rand.Rand, net byte, n int) []packet.Addr {
	off := rng.Intn(1<<24 - n)
	out := make([]packet.Addr, n)
	for i := range out {
		out[i] = packet.Addr(uint32(net)<<24 | uint32(off+i))
	}
	return out
}

func marshal(p *packet.Packet) ([]byte, error) {
	data, err := p.Marshal(nil)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", p, err)
	}
	return data, nil
}

func capPacket(src packet.Addr, h *packet.CapHdr, payload []byte) ([]byte, error) {
	h.Proto = packet.ProtoRaw
	p := &packet.Packet{Src: src, Dst: dstAddr, TTL: 64, Proto: packet.ProtoRaw, Hdr: h,
		Size: packet.OuterHdrLen + h.WireSize() + len(payload)}
	if payload != nil {
		p.Payload = payload
	}
	return marshal(p)
}

// The wire forms of Table 1's packet kinds.

func wireRegular(src packet.Addr, nonce, capv uint64) ([]byte, error) {
	return capPacket(src, &packet.CapHdr{Kind: packet.KindRegular, Nonce: nonce,
		NKB: packet.MaxNKB, TSec: packet.MaxTSeconds, Caps: []uint64{capv}}, nil)
}

func wireNonceOnly(src packet.Addr, nonce uint64) ([]byte, error) {
	return capPacket(src, &packet.CapHdr{Kind: packet.KindNonceOnly, Nonce: nonce}, nil)
}

func wireRenewal(src packet.Addr, nonce, capv uint64) ([]byte, error) {
	return capPacket(src, &packet.CapHdr{Kind: packet.KindRenewal, Nonce: nonce,
		NKB: packet.MaxNKB, TSec: packet.MaxTSeconds, Caps: []uint64{capv}}, nil)
}

func wireRequest(src packet.Addr) ([]byte, error) {
	return capPacket(src, &packet.CapHdr{Kind: packet.KindRequest}, nil)
}

func wireLegacy(src packet.Addr, payloadBytes int) ([]byte, error) {
	p := &packet.Packet{Src: src, Dst: dstAddr, TTL: 64, Proto: packet.ProtoRaw,
		Size: packet.OuterHdrLen + payloadBytes}
	if payloadBytes > 0 {
		p.Payload = make([]byte, payloadBytes)
	}
	return marshal(p)
}

// schedule is an open-loop send schedule: Poisson arrivals at a fixed
// mean rate, the arrival process of independent senders. It is a pure
// function of seed and rate; the generator only reads it.
type schedule struct {
	rng    *rand.Rand
	meanNs float64
	due    int64 // ns since the phase started
}

func newSchedule(seed int64, ratePerSec float64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), meanNs: 1e9 / ratePerSec}
}

// next returns the following due time in ns since the phase started.
func (s *schedule) next() int64 {
	s.due += int64(s.rng.ExpFloat64()*s.meanNs) + 1
	return s.due
}

// window is the closed-loop bookkeeping: which flows have a datagram
// in flight and since when. One datagram per flow at most, because a
// header-only packet has no room for a sequence number and the flow
// address is how a returning datagram is matched to its send time.
type window struct {
	sentAt   []int64 // per flow, 0 = nothing in flight
	inflight int
	timeout  int64
	lost     int64
}

func newWindow(flows int, timeoutNs int64) *window {
	return &window{sentAt: make([]int64, flows), timeout: timeoutNs}
}

// send marks flow in flight since t (t > 0). A datagram of the same
// flow still in flight is given up as lost.
func (w *window) send(flow int, t int64) {
	if w.sentAt[flow] != 0 {
		w.lost++
		w.inflight--
	}
	w.sentAt[flow] = t
	w.inflight++
}

// recv matches a returned datagram and gives the time since its send;
// ok is false for a datagram that was not in flight (a duplicate, or
// one already written off).
func (w *window) recv(flow int, t int64) (elapsed int64, ok bool) {
	if flow < 0 || flow >= len(w.sentAt) || w.sentAt[flow] == 0 {
		return 0, false
	}
	elapsed = t - w.sentAt[flow]
	w.sentAt[flow] = 0
	w.inflight--
	return elapsed, true
}

// expire writes off every datagram in flight for longer than the
// timeout and returns how many slots that freed.
func (w *window) expire(t int64) int {
	n := 0
	for f, s := range w.sentAt {
		if s != 0 && t-s > w.timeout {
			w.sentAt[f] = 0
			n++
		}
	}
	w.inflight -= n
	w.lost += int64(n)
	return n
}
