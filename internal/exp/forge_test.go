package exp

import (
	"testing"

	"tva/internal/netsim"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// forgeGrants returns a start hook that hands every user's shim perSec
// forged grants a second, each claiming to come from the destination:
// what an off-path attacker who spoofs the destination's address can
// deliver for 60 bytes. The capabilities are bogus and the
// authorization is the largest the header can express, so a shim that
// believes one sends demoted packets until T runs out.
func forgeGrants(perSec int) func(sim *netsim.Sim, users []*host) {
	return func(sim *netsim.Sim, users []*host) {
		if perSec == 0 {
			return
		}
		sim.Every(tvatime.Second/tvatime.Duration(perSec), func() {
			for _, u := range users {
				pkt := packet.AcquirePacket()
				h := pkt.NewHdr()
				h.Kind, h.Proto = packet.KindRequest, packet.ProtoControl
				h.Return = &packet.ReturnInfo{Grant: &packet.Grant{
					NKB: packet.MaxNKB, TSec: packet.MaxTSeconds, Caps: []uint64{1, 2, 3, 4},
				}}
				pkt.Src, pkt.Dst, pkt.Proto = DestAddr, u.addr, packet.ProtoControl
				pkt.Size = packet.OuterHdrLen + h.WireSize()
				u.tvaShim.Receive(pkt)
				packet.Release(pkt)
			}
		})
	}
}

// TestForgedGrants runs Fig. 8's TVA setup with and without its flood
// while the users receive forged grants. A grant is believed only while
// it answers a request or renewal, so one forgery a second per user
// costs nothing here; believing every grant cost half the transfers,
// and under the flood nine in ten. At five a second some forgeries
// still land inside a request's or renewal's round trip and take its
// answer's place; only a token the grant must echo would stop those.
func TestForgedGrants(t *testing.T) {
	d := short(t)
	for _, attackers := range []int{0, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			var done [3]int
			for i, perSec := range []int{0, 1, 5} {
				r := run(Config{
					Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: attackers,
					Duration: d, Seed: seed,
				}, hooks{start: forgeGrants(perSec)})
				for _, tr := range r.Transfers {
					if tr.Completed {
						done[i]++
					}
				}
			}
			t.Logf("attackers=%d seed=%d: completed %d / %d / %d at 0 / 1 / 5 forgeries per second",
				attackers, seed, done[0], done[1], done[2])
			if float64(done[1]) < 0.95*float64(done[0]) {
				t.Errorf("attackers=%d seed=%d: %d completed at 1 forgery/s, want >= 0.95 x %d",
					attackers, seed, done[1], done[0])
			}
			if float64(done[2]) < 0.3*float64(done[0]) {
				t.Errorf("attackers=%d seed=%d: %d completed at 5 forgeries/s, want >= 0.3 x %d",
					attackers, seed, done[2], done[0])
			}
		}
	}
}
