// Real-plane runner: the same scenario over an in-process loopback
// overlay.Topology — real UDP sockets, real port pacing goroutines,
// wall-clock time. Senders mirror the simulator's stream driver: knock
// until granted (at most one request per 100 ms), then stream
// full-size messages at the jittered configured pace; attackers blast
// marshaled legacy packets from plain UDP sockets.
package xcheck

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tva/internal/core"
	"tva/internal/exp"
	"tva/internal/metrics"
	"tva/internal/overlay"
	"tva/internal/packet"
)

// knockInterval paces capability requests while ungranted — the same
// bound the sim-plane stream driver applies.
const knockInterval = 100 * time.Millisecond

func runReal(sc Scenario) (*PlaneResult, error) {
	topo, err := overlay.NewTopology(overlay.TopoConfig{
		Routers:         2,
		LinkBps:         sc.LinkBps,
		RequestFraction: sc.RequestFraction,
		SpanCapacity:    simSpanCapacity,
	})
	if err != nil {
		return nil, err
	}
	defer topo.Close()

	shim := core.ShimConfig{AutoReturn: true}
	destPolicy := core.NewServerPolicy()
	destPolicy.GrantKB = sc.GrantKB
	destPolicy.GrantTSec = sc.GrantTSec
	dest, err := topo.AddHost(exp.DestAddr, 1, destPolicy, shim)
	if err != nil {
		return nil, err
	}
	users := make([]*overlay.Host, sc.Users)
	for i := range users {
		if users[i], err = topo.AddHost(exp.UserAddr(i), 0, core.NewClientPolicy(), shim); err != nil {
			return nil, err
		}
	}
	window := sc.DurationMS/100 + 4
	if _, err := topo.StartMetrics(window, metrics.DetectorConfig{}, 100*time.Millisecond); err != nil {
		return nil, err
	}

	// Delivery accounting: the counter goroutine owns the tallies until
	// its stop channel closes (then drains what's buffered and exits).
	perFlow := make([]uint64, sc.Users)
	var legitDelivered, attackDelivered uint64
	userIdx := make(map[packet.Addr]int, sc.Users)
	for i := 0; i < sc.Users; i++ {
		userIdx[exp.UserAddr(i)] = i
	}
	stopCount := make(chan struct{})
	var countWG sync.WaitGroup
	countWG.Add(1)
	go func() {
		defer countWG.Done()
		count := func(m overlay.Message) {
			if i, ok := userIdx[m.Src]; ok {
				if len(m.Payload) >= sc.MsgBytes {
					perFlow[i]++
					legitDelivered++
				}
				return
			}
			if len(m.Payload) >= sc.AttackPktSize {
				attackDelivered++
			}
		}
		for {
			select {
			case m := <-dest.Inbox:
				count(m)
			case <-stopCount:
				for {
					select {
					case m := <-dest.Inbox:
						count(m)
					default:
						return
					}
				}
			}
		}
	}()

	// Senders and attackers run for Duration-Drain, then the run idles
	// for Drain so in-flight traffic settles — the same schedule the
	// simulator plane follows.
	sendFor := time.Duration(sc.DurationMS-sc.DrainMS) * time.Millisecond
	stopSend := make(chan struct{})
	var sendWG sync.WaitGroup

	perFlowSent := make([]uint64, sc.Users)
	var legitSent, attackSent atomic.Uint64
	msg := make([]byte, sc.MsgBytes)
	interval := time.Duration(sc.MsgIntervalMS) * time.Millisecond
	for i := range users {
		sendWG.Add(1)
		go func(i int) {
			defer sendWG.Done()
			u := users[i]
			rng := rand.New(rand.NewSource(sc.Seed + int64(i)*1315423911 + 1))
			var lastKnock time.Time
			// Credit-based pacing: advance a deadline by the jittered
			// interval and sleep until it. Timer overshoot (sleep
			// granularity) then self-corrects instead of compounding,
			// keeping the mean rate equal to the simulator's.
			next := time.Now().Add(time.Duration(rng.Int63n(int64(interval) + 1)))
			timer := time.NewTimer(time.Until(next))
			defer timer.Stop()
			for {
				select {
				case <-stopSend:
					return
				case <-timer.C:
				}
				now := time.Now()
				if u.HasCaps(exp.DestAddr) {
					if u.Send(exp.DestAddr, msg) == nil {
						perFlowSent[i]++
						legitSent.Add(1)
					}
				} else if now.Sub(lastKnock) >= knockInterval {
					lastKnock = now
					u.Send(exp.DestAddr, nil) // knock: the shim piggybacks a request
				}
				jitter := 0.75 + 0.5*rng.Float64()
				next = next.Add(time.Duration(float64(interval) * jitter))
				timer.Reset(time.Until(next))
			}
		}(i)
	}

	routerAddr := topo.Router(0).Addr().String()
	atkInterval := time.Duration(int64(sc.AttackPktSize) * 8 * int64(time.Second) / sc.AttackRateBps)
	atkStart := time.Duration(sc.AttackStartMS) * time.Millisecond
	for i := 0; i < sc.Attackers; i++ {
		wire, err := attackPacket(exp.AttackerAddr(i), sc.AttackPktSize)
		if err != nil {
			close(stopSend)
			close(stopCount)
			return nil, err
		}
		conn, err := net.Dial("udp", routerAddr)
		if err != nil {
			close(stopSend)
			close(stopCount)
			return nil, err
		}
		sendWG.Add(1)
		go func(i int, conn net.Conn, wire []byte) {
			defer sendWG.Done()
			defer conn.Close()
			rng := rand.New(rand.NewSource(sc.Seed + int64(i)*2654435761 + 7))
			next := time.Now().Add(atkStart + time.Duration(rng.Int63n(int64(atkInterval)+1)))
			timer := time.NewTimer(time.Until(next))
			defer timer.Stop()
			for {
				select {
				case <-stopSend:
					return
				case <-timer.C:
				}
				if _, err := conn.Write(wire); err == nil {
					attackSent.Add(1)
				}
				jitter := 0.75 + 0.5*rng.Float64()
				next = next.Add(time.Duration(float64(atkInterval) * jitter))
				timer.Reset(time.Until(next))
			}
		}(i, conn, wire)
	}

	time.Sleep(sendFor)
	close(stopSend)
	sendWG.Wait()
	time.Sleep(time.Duration(sc.DrainMS) * time.Millisecond)

	// Final deterministic sample, then freeze the tallies.
	topo.Tick()
	close(stopCount)
	countWG.Wait()

	linkDrops := topo.LinkSchedDrops(0)
	dem0, dem1 := topo.Router(0).CoreDemotions(), topo.Router(1).CoreDemotions()
	out := &PlaneResult{
		Plane:           "real",
		LegitSent:       legitSent.Load(),
		LegitDelivered:  legitDelivered,
		AttackSent:      attackSent.Load(),
		AttackDelivered: attackDelivered,
		DropReasons:     dropReasonMap(linkDrops),
		DropsTotal:      linkDrops.Total(),
		DemotionsTotal:  dem0.Total() + dem1.Total(),
	}
	for i := 0; i < sc.Users; i++ {
		out.PerFlow = append(out.PerFlow, FlowCount{
			Addr: exp.UserAddr(i).String(), Sent: perFlowSent[i], Delivered: perFlow[i],
		})
	}
	if sk := topo.LinkWaitSketch(0); sk != nil {
		out.WaitCounts = sk.Counts()
	}
	shared, err := sharedMetrics(topo.Metrics(0).Registry)
	if err != nil {
		return nil, fmt.Errorf("xcheck: real scrape: %w", err)
	}
	out.SharedMetrics = shared
	if sink := topo.Spans(); sink != nil {
		out.Hops = hopWaits(sink.Snapshot(), sink.HopName, uint32(exp.DestAddr))
	}
	return out, nil
}

// attackPacket marshals one legacy raw flood packet to wire form.
func attackPacket(src packet.Addr, payloadBytes int) ([]byte, error) {
	pkt := packet.AcquirePacket()
	pkt.Src, pkt.Dst, pkt.TTL = src, exp.DestAddr, 64
	pkt.Proto = packet.ProtoRaw
	pkt.Payload = make([]byte, payloadBytes)
	pkt.Size = packet.OuterHdrLen + payloadBytes
	wire, err := pkt.Marshal(nil)
	packet.Release(pkt)
	return wire, err
}
