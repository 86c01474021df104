package core

import (
	"testing"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

// timers is a minimal timer wheel driving Shim.After against the wire
// harness's controllable clock.
type timers struct {
	w *wire
	q []timerEv
}

type timerEv struct {
	at tvatime.Time
	fn func()
}

func (tm *timers) After(d tvatime.Duration, fn func()) {
	tm.q = append(tm.q, timerEv{tm.w.now.Add(d), fn})
}

// runUntil fires due timers in order, advancing the wire clock.
func (tm *timers) runUntil(until tvatime.Time) {
	for {
		best := -1
		for i, ev := range tm.q {
			if ev.at <= until && (best < 0 || ev.at < tm.q[best].at) {
				best = i
			}
		}
		if best < 0 {
			tm.w.now = until
			return
		}
		ev := tm.q[best]
		tm.q = append(tm.q[:best], tm.q[best+1:]...)
		if ev.at > tm.w.now {
			tm.w.now = ev.at
		}
		ev.fn()
	}
}

func TestRetryRecoversLostRequest(t *testing.T) {
	w := newWire(1)
	tm := &timers{w: w}
	client := w.addHost(1, NewClientPolicy())
	client.After = tm.After
	w.addHost(2, NewServerPolicy())

	w.dropNext = 1 // lose the initial request on the wire
	client.Send(2, packet.ProtoRaw, nil, 100)
	if client.HasCaps(2) {
		t.Fatal("request was dropped; no grant should have arrived")
	}
	tm.runUntil(tvatime.FromSeconds(2))
	if !client.HasCaps(2) {
		t.Fatal("retry engine did not recover the lost request")
	}
	if client.Stats.RetriesSent != 1 {
		t.Errorf("RetriesSent = %d, want 1 (first retry should have succeeded)", client.Stats.RetriesSent)
	}
}

func TestRetryBacksOffAndGivesUp(t *testing.T) {
	w := newWire(1)
	tm := &timers{w: w}
	client := w.addHost(1, NewClientPolicy())
	client.After = tm.After
	w.addHost(2, NewServerPolicy())

	w.dropNext = 1 << 20 // black-hole everything
	client.Send(2, packet.ProtoRaw, nil, 100)
	tm.runUntil(tvatime.FromSeconds(120))
	if client.HasCaps(2) {
		t.Fatal("nothing should get through a black hole")
	}
	if got, want := client.Stats.RetriesSent, uint64(8); got != want {
		t.Errorf("RetriesSent = %d, want %d (the default cap)", got, want)
	}
	if client.Stats.RetriesAbandoned != 1 {
		t.Errorf("RetriesAbandoned = %d, want 1", client.Stats.RetriesAbandoned)
	}
	if len(tm.q) != 0 {
		t.Errorf("%d timers still pending after abandonment; the episode should be dead", len(tm.q))
	}
}

func TestRetryAnswerCancelsEpisode(t *testing.T) {
	w := newWire(1)
	tm := &timers{w: w}
	client := w.addHost(1, NewClientPolicy())
	client.After = tm.After
	w.addHost(2, NewServerPolicy())

	client.Send(2, packet.ProtoRaw, nil, 100) // delivered; grant arrives inline
	if !client.HasCaps(2) {
		t.Fatal("lossless request should be granted")
	}
	tm.runUntil(tvatime.FromSeconds(5))
	if client.Stats.RetriesSent != 0 {
		t.Errorf("RetriesSent = %d after an answered request, want 0", client.Stats.RetriesSent)
	}
}

func TestProactiveRenewalKeepsActiveFlowAuthorized(t *testing.T) {
	w := newWire(1)
	tm := &timers{w: w}
	client := w.addHost(1, NewClientPolicy())
	client.After = tm.After
	w.addHost(2, NewServerPolicy())

	client.Send(2, packet.ProtoRaw, nil, 100) // request + grant (T = 10s)
	if !client.HasCaps(2) {
		t.Fatal("no grant")
	}
	// Keep the flow active just before the 0.75*T renewal point, then
	// let the proactive timer fire.
	tm.runUntil(tvatime.FromSeconds(7.4))
	client.Send(2, packet.ProtoRaw, nil, 100)
	grantsBefore := client.Stats.GrantsReceived
	tm.runUntil(tvatime.FromSeconds(8))
	if client.Stats.ProactiveRenewals != 1 {
		t.Fatalf("ProactiveRenewals = %d, want 1", client.Stats.ProactiveRenewals)
	}
	if client.Stats.GrantsReceived != grantsBefore+1 {
		t.Errorf("GrantsReceived = %d, want %d (the renewal should have been re-granted)",
			client.Stats.GrantsReceived, grantsBefore+1)
	}
}

func TestProactiveRenewalSkipsIdleFlow(t *testing.T) {
	w := newWire(1)
	tm := &timers{w: w}
	client := w.addHost(1, NewClientPolicy())
	client.After = tm.After
	w.addHost(2, NewServerPolicy())

	client.Send(2, packet.ProtoRaw, nil, 100)
	// Flow goes silent; at 7.5s the timer must decline to renew.
	tm.runUntil(tvatime.FromSeconds(20))
	if client.Stats.ProactiveRenewals != 0 {
		t.Errorf("ProactiveRenewals = %d for an idle flow, want 0", client.Stats.ProactiveRenewals)
	}
}

// TestRetryRefusalEndsEpisode answers a request with a refusal,
// piggybacked on the destination's own reply: an empty grant is an
// answer (§4.2), so no retry follows it.
func TestRetryRefusalEndsEpisode(t *testing.T) {
	w := newWire(1)
	tm := &timers{w: w}
	client := w.addHost(1, NewClientPolicy())
	client.After = tm.After
	server := w.addHost(2, RefuseAllPolicy{})

	client.Send(2, packet.ProtoRaw, nil, 100) // request; the refusal waits at the server
	server.Send(1, packet.ProtoRaw, nil, 100) // carries it back
	if client.Stats.Refusals != 1 {
		t.Fatalf("Refusals = %d, want 1", client.Stats.Refusals)
	}
	tm.runUntil(tvatime.FromSeconds(120))
	if client.Stats.RetriesSent != 0 || client.Stats.RetriesAbandoned != 0 {
		t.Errorf("after a refusal: %d retries sent, %d episodes abandoned; want none",
			client.Stats.RetriesSent, client.Stats.RetriesAbandoned)
	}
}
