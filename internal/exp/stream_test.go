package exp

import (
	"testing"

	"tva/internal/tvatime"
)

// stream is the stream workload of xcheck's builtin scenarios around c:
// 512 B messages every 50 ms, a 2 ms link delay, a 5 % request channel,
// 64 KB grants, a 500 ms drain, and the sampler on.
func stream(c Config) StreamConfig {
	c.LinkDelay = 2 * tvatime.Millisecond
	c.RequestFraction = 0.05
	c.GrantKB = 64
	c.MetricsInterval = 100 * tvatime.Millisecond
	return StreamConfig{
		Config:      c,
		MsgBytes:    512,
		MsgInterval: 50 * tvatime.Millisecond,
		Drain:       500 * tvatime.Millisecond,
	}
}

// A legit-only stream run should deliver essentially every message and
// record zero attack traffic.
func TestRunStreamBaseline(t *testing.T) {
	res := RunStream(stream(Config{
		NumUsers: 5,
		Duration: 2 * tvatime.Second,
		Seed:     7,
	}))
	if res.LegitSent == 0 {
		t.Fatal("no messages sent")
	}
	if f := res.DeliveredFraction(); f < 0.95 {
		t.Fatalf("baseline delivered fraction %.3f, want >= 0.95 (sent %d delivered %d)",
			f, res.LegitSent, res.LegitDelivered)
	}
	if res.AttackSent != 0 || res.AttackDelivered != 0 {
		t.Fatalf("attack counters nonzero in baseline: sent %d delivered %d",
			res.AttackSent, res.AttackDelivered)
	}
	var perFlow uint64
	for i, f := range res.PerFlow {
		if f.Addr != UserAddr(i) {
			t.Fatalf("PerFlow[%d].Addr = %v, want %v", i, f.Addr, UserAddr(i))
		}
		perFlow += f.Sent
	}
	if perFlow != res.LegitSent {
		t.Fatalf("per-flow sent %d != total %d", perFlow, res.LegitSent)
	}
	if res.Telemetry.Metrics == nil {
		t.Fatal("metrics registry not built")
	}
}

// Under a legacy flood TVA must keep delivering legitimate messages
// while the bottleneck sheds most attack load.
func TestRunStreamFlood(t *testing.T) {
	res := RunStream(stream(Config{
		NumUsers:      5,
		NumAttackers:  10,
		AttackRateBps: 4_000_000, // 40 Mb/s aggregate into 10 Mb/s
		Duration:      3 * tvatime.Second,
		Seed:          7,
	}))
	if f := res.DeliveredFraction(); f < 0.9 {
		t.Fatalf("flood delivered fraction %.3f, want >= 0.9 (sent %d delivered %d)",
			f, res.LegitSent, res.LegitDelivered)
	}
	if res.AttackSent == 0 {
		t.Fatal("no attack packets injected")
	}
	if res.BottleneckDrops == 0 {
		t.Fatal("overloaded bottleneck recorded no drops")
	}
	if res.AttackDelivered >= res.AttackSent {
		t.Fatalf("attack delivery %d of %d: bottleneck shed nothing",
			res.AttackDelivered, res.AttackSent)
	}
}

// Same seed, same counts: the stream driver must stay deterministic.
func TestRunStreamDeterministic(t *testing.T) {
	cfg := stream(Config{NumUsers: 3, NumAttackers: 2, Duration: 2 * tvatime.Second, Seed: 11})
	a, b := RunStream(cfg), RunStream(cfg)
	if a.LegitSent != b.LegitSent || a.LegitDelivered != b.LegitDelivered ||
		a.AttackSent != b.AttackSent || a.BottleneckDrops != b.BottleneckDrops {
		t.Fatalf("same-seed divergence: %+v vs %+v",
			[4]uint64{a.LegitSent, a.LegitDelivered, a.AttackSent, a.BottleneckDrops},
			[4]uint64{b.LegitSent, b.LegitDelivered, b.AttackSent, b.BottleneckDrops})
	}
}

// RunStream refuses a stream without a message size or pace: a zero
// pace would never let the virtual clock advance.
func TestRunStreamNeedsMessagePace(t *testing.T) {
	for _, c := range []StreamConfig{
		{MsgBytes: 512},
		{MsgInterval: 50 * tvatime.Millisecond},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RunStream(MsgBytes %d, MsgInterval %v) did not panic", c.MsgBytes, c.MsgInterval)
				}
			}()
			RunStream(c)
		}()
	}
}
