package core

import (
	"math/rand"
	"testing"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

// TestSpoofedRequestFloodBounded floods a public server's shim with
// requests from every address of one /16, in a seeded random order.
// Half the sources are blacklisted and refused, which leaves a pending
// refusal per source; the other half are granted, and each grant's
// carrier opens an answer count toward its spoofed requester. The peer
// table stays at its bound by evicting those receive-only records, the
// grant the server holds toward a peer it talks to survives, and a
// request after the flood is still answered.
func TestSpoofedRequestFloodBounded(t *testing.T) {
	w := newWire(1)
	policy := NewServerPolicy()
	server := w.addHost(1, policy)
	w.addHost(2, &AllowAllPolicy{})
	server.Send(2, packet.ProtoRaw, nil, 100)
	if !server.HasCaps(2) {
		t.Fatal("setup: the server holds no grant toward its peer")
	}

	rng := rand.New(rand.NewSource(12345))
	subnet := packet.AddrFrom(10, 7, 0, 0) // 10.7.0.0/16
	for i, host := range rng.Perm(1 << 16) {
		src := subnet | packet.Addr(host)
		if i%2 == 0 {
			policy.MarkMisbehaving(src, w.now)
		}
		req := reqPacket(src, 1, 0)
		req.Hdr.Request.PreCaps = append(req.Hdr.Request.PreCaps, rng.Uint64())
		server.Receive(req)
		if len(server.peers) > peerCap {
			t.Fatalf("after %d sources the table holds %d records, bound %d", i+1, len(server.peers), peerCap)
		}
	}
	if got, want := server.Stats.PeersEvicted, uint64(1+1<<16-peerCap); got != want {
		t.Errorf("PeersEvicted = %d, want %d: every record past the bound", got, want)
	}
	if got := server.Stats.AutoReturns; got != 1<<15 {
		t.Errorf("AutoReturns = %d, want %d: one carrier per granted source", got, 1<<15)
	}
	if !server.HasCaps(2) {
		t.Error("the flood evicted the grant the server holds toward its peer")
	}

	client := w.addHost(3, NewClientPolicy())
	client.Send(1, packet.ProtoRaw, nil, 100)
	if !client.HasCaps(1) {
		t.Error("a request after the flood was not answered")
	}
}

// forge hands dst a grant "from" src that answers nothing dst sent.
func forge(dst *Shim, src packet.Addr, caps ...uint64) {
	h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoControl,
		Return: &packet.ReturnInfo{Grant: &packet.Grant{NKB: packet.MaxNKB, TSec: packet.MaxTSeconds, Caps: caps}}}
	dst.Receive(&packet.Packet{Src: src, Dst: dst.addr, TTL: 64, Proto: packet.ProtoControl, Hdr: h})
}

// A grant or refusal is believed only while it can answer a request or
// renewal, and only until answerWindow after the last one.
func TestUnsolicitedReturnIgnored(t *testing.T) {
	w := newWire(1)
	client := w.addHost(1, NewClientPolicy())
	w.addHost(2, NewServerPolicy())
	client.Send(2, packet.ProtoRaw, nil, 100)
	real := append([]uint64(nil), client.peers[2].grant.caps...)

	forge(client, 2, 1, 2, 3, 4)
	forge(client, 2) // a refusal
	if got := client.peers[2].grant.caps; !client.HasCaps(2) || len(got) != len(real) || got[0] != real[0] {
		t.Errorf("a forged grant over an answered request replaced the real one: %v, was %v", got, real)
	}
	if client.Stats.Unsolicited != 2 || client.Stats.Refusals != 0 {
		t.Errorf("Unsolicited = %d, Refusals = %d, want 2 and 0", client.Stats.Unsolicited, client.Stats.Refusals)
	}

	// A request lost on the wire stops counting in the end.
	other := w.addHost(3, NewClientPolicy())
	w.dropNext = 1
	other.Send(2, packet.ProtoRaw, nil, 100)
	w.advance(answerWindow + tvatime.Millisecond)
	forge(other, 2, 1, 2, 3, 4)
	if other.HasCaps(2) {
		t.Error("a grant long after the last request was believed")
	}
}
