package main

import (
	"math"
	"testing"
)

func TestScheduleIsAPureFunctionOfSeedAndRate(t *testing.T) {
	a, b, c := newSchedule(7, 50000), newSchedule(7, 50000), newSchedule(8, 50000)
	same, differ := true, false
	var last int64
	const n = 200000
	for i := 0; i < n; i++ {
		x, y, z := a.next(), b.next(), c.next()
		same = same && x == y
		differ = differ || x != z
		if x <= last {
			t.Fatalf("due times must increase: %d after %d", x, last)
		}
		last = x
	}
	if !same || !differ {
		t.Fatalf("same seed same schedule: %v; other seed other schedule: %v", same, differ)
	}
	mean := float64(last) / n
	if want := 1e9 / 50000; math.Abs(mean-want)/want > 0.01 {
		t.Fatalf("mean gap %v ns, want %v within 1%%", mean, want)
	}
	// Twice the rate, same seed: the same arrival pattern at half the
	// spacing, nothing else.
	fast, slow := newSchedule(7, 100000), newSchedule(7, 50000)
	for i := 0; i < 1000; i++ {
		f, s := fast.next(), slow.next()
		if math.Abs(float64(2*f-s)) > float64(2*(i+1)) {
			t.Fatalf("arrival %d: %d at 2x vs %d at 1x", i, f, s)
		}
	}
}

func TestWindowTimeoutAccounting(t *testing.T) {
	w := newWindow(8, 100)
	for f := 0; f < 4; f++ {
		w.send(f, int64(10+f))
	}
	if w.inflight != 4 {
		t.Fatalf("inflight %d, want 4", w.inflight)
	}
	if e, ok := w.recv(2, 50); !ok || e != 38 {
		t.Fatalf("recv(2) = %d, %v; want 38, true", e, ok)
	}
	if _, ok := w.recv(2, 51); ok {
		t.Fatal("a second copy of a returned datagram must not match")
	}
	if _, ok := w.recv(-1, 51); ok {
		t.Fatal("an unverifiable datagram must not match")
	}
	// At t=111 only flow 0 (sent at 10) is older than the timeout.
	if n := w.expire(111); n != 1 || w.lost != 1 || w.inflight != 2 {
		t.Fatalf("expire freed %d, lost %d, inflight %d; want 1, 1, 2", n, w.lost, w.inflight)
	}
	// The late copy of the written-off datagram is not counted again.
	if _, ok := w.recv(0, 120); ok {
		t.Fatal("a datagram written off as lost must not match later")
	}
	// Re-sending a flow that is still out gives the old one up.
	w.send(1, 130)
	if w.lost != 2 || w.inflight != 2 {
		t.Fatalf("after resend: lost %d, inflight %d; want 2, 2", w.lost, w.inflight)
	}
	if n := w.expire(1000); n != 2 || w.inflight != 0 || w.lost != 4 {
		t.Fatalf("final expire freed %d, inflight %d, lost %d; want 2, 0, 4", n, w.inflight, w.lost)
	}
}

func TestMixSharesAreExact(t *testing.T) {
	total := 0
	for k, pct := range mixPercent {
		total += pct
		if mixPatternLen*pct%100 != 0 {
			t.Errorf("%s: %d%% of %d is not a whole number of packets", kindNames[k], pct, mixPatternLen)
		}
	}
	if total != 100 || mixPatternLen%mixBurst != 0 {
		t.Fatalf("shares sum to %d, pattern of %d in bursts of %d", total, mixPatternLen, mixBurst)
	}
	want := mixExpected()
	if got := want.Requests + want.RegularHit + want.RegularMiss + want.Legacy; got != mixSlicePkts {
		t.Fatalf("expected counters cover %d of %d packets", got, mixSlicePkts)
	}
	// Miss flows must not recur within a slice, or they would hit.
	if n := mixSlicePkts * mixPercent[kRegularMiss] / 100; n > mixMissFlows {
		t.Fatalf("%d regular misses per slice over %d flows", n, mixMissFlows)
	}
	if n := mixSlicePkts * mixPercent[kRenewalMiss] / 100; n > mixRenewFlows {
		t.Fatalf("%d renewal misses per slice over %d flows", n, mixRenewFlows)
	}
}
