package overlay

import (
	"net"
	"testing"
	"time"

	"tva/internal/core"
	"tva/internal/packet"
)

// TestForgedGrantDatagramIgnored sends alice, once she holds
// capabilities toward bob, a grant "from" bob out of a plain UDP socket:
// anyone who knows her port can. The shim has no request outstanding
// toward bob, so it counts the grant as unsolicited, keeps the real one,
// and her next message reaches bob undemoted.
func TestForgedGrantDatagramIgnored(t *testing.T) {
	_, alice, bob := testNet(t, core.NewClientPolicy(), core.NewServerPolicy())
	if err := alice.Send(bob.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, bob, 2*time.Second)
	waitFor(t, "alice never obtained capabilities", func() bool { return alice.HasCaps(bob.Addr()) })

	h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoControl,
		Return: &packet.ReturnInfo{Grant: &packet.Grant{
			NKB: packet.MaxNKB, TSec: packet.MaxTSeconds, Caps: []uint64{1, 2, 3, 4},
		}}}
	forged, err := (&packet.Packet{Src: bob.Addr(), Dst: alice.Addr(), TTL: 64,
		Proto: packet.ProtoControl, Hdr: h, Size: packet.OuterHdrLen + h.WireSize()}).Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.DialUDP("udp", nil, alice.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	before := alice.Stats().Unsolicited
	if _, err := raw.Write(forged); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "forged grant not counted as unsolicited", func() bool { return alice.Stats().Unsolicited > before })

	if !alice.HasCaps(bob.Addr()) {
		t.Fatal("alice lost her capabilities to a forged grant")
	}
	if err := alice.Send(bob.Addr(), []byte("after")); err != nil {
		t.Fatal(err)
	}
	if msg := recvWithin(t, bob, 2*time.Second); msg.Demoted {
		t.Error("alice's message after the forged grant arrived demoted")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
