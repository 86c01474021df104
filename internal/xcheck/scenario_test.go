package xcheck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScenarioDefaults(t *testing.T) {
	s := Scenario{Name: "d"}.withDefaults()
	if s.Users != 10 || s.MsgBytes != 512 || s.MsgIntervalMS != 50 {
		t.Errorf("stream defaults: %+v", s)
	}
	if s.LinkBps != 10_000_000 || s.DurationMS != 3000 || s.DrainMS != 500 {
		t.Errorf("link/schedule defaults: %+v", s)
	}
	if s.WaitFloorBucket != 18 || s.WaitShiftBuckets != 1 {
		t.Errorf("wait comparison defaults: floor %d shift %d", s.WaitFloorBucket, s.WaitShiftBuckets)
	}
	if s.GrantKB != 64 || s.GrantTSec != 10 {
		t.Errorf("grant defaults: %+v", s)
	}

	// -1 requests exact alignment (shift allowance 0).
	s = Scenario{Name: "d", WaitShiftBuckets: -1}.withDefaults()
	if s.WaitShiftBuckets != 0 {
		t.Errorf("WaitShiftBuckets -1 should clamp to 0, got %d", s.WaitShiftBuckets)
	}
}

func TestToleranceResolution(t *testing.T) {
	s := Scenario{Name: "t"}.withDefaults()
	if tol, ok := s.tolerance("drop_rate"); !ok || tol != DefaultTolerances["drop_rate"] {
		t.Errorf("default drop_rate: %v %v", tol, ok)
	}
	if _, ok := s.tolerance("metric:tva_flowcache_entries"); ok {
		t.Error("undeclared metric tolerance should be informational")
	}
	s.Tolerances = map[string]float64{"drop_rate": 0.5, "metric:tva_flowcache_entries": 0.1}
	if tol, _ := s.tolerance("drop_rate"); tol != 0.5 {
		t.Errorf("override drop_rate: %v", tol)
	}
	if tol, ok := s.tolerance("metric:tva_flowcache_entries"); !ok || tol != 0.1 {
		t.Errorf("declared metric tolerance: %v %v", tol, ok)
	}
}

func TestBuiltins(t *testing.T) {
	for _, name := range []string{"baseline", "flood"} {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		if s.Name != name || s.Seed == 0 {
			t.Errorf("builtin %q malformed: %+v", name, s)
		}
	}
	for _, s := range Builtins {
		if err := s.withDefaults().validate(); err != nil {
			t.Errorf("builtin %q does not validate: %v", s.Name, err)
		}
	}
	if _, ok := Builtin("nope"); ok {
		t.Error("unknown builtin resolved")
	}
}

func TestLoadScenarioRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := Scenario{
		Name: "rt", Users: 4, Attackers: 2, AttackRateBps: 2_000_000,
		DurationMS: 1500, Seed: 7,
		Tolerances: map[string]float64{"wait_cdf_gap": 0.5},
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rt.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || got.Users != 4 || got.Attackers != 2 || got.Seed != 7 {
		t.Errorf("round trip: %+v", got)
	}
	if got.Tolerances["wait_cdf_gap"] != 0.5 {
		t.Errorf("tolerances lost: %+v", got.Tolerances)
	}

	// A nameless spec is rejected.
	anon := filepath.Join(dir, "anon.json")
	if err := os.WriteFile(anon, []byte(`{"users": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(anon); err == nil {
		t.Error("nameless scenario accepted")
	}
	if _, err := LoadScenario(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunScenarioQuick cross-validates a scaled-down baseline end to
// end: both planes run for real (the overlay side binds loopback UDP
// sockets), so it is skipped in -short mode.
func TestRunScenarioQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a wall-clock overlay deployment")
	}
	c, err := RunScenario(Scenario{
		Name: "quick", Users: 3, DurationMS: 1000, DrainMS: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Pass {
		t.Errorf("quick baseline diverged:")
		for _, chk := range c.Checks {
			if chk.Gated && !chk.Pass {
				t.Errorf("  %s: sim %v real %v delta %v > tol %v",
					chk.Name, chk.Sim, chk.Real, chk.Delta, chk.Tolerance)
			}
		}
	}
	if c.Sim.LegitSent == 0 || c.Real.LegitSent == 0 {
		t.Errorf("no traffic: sim %d real %d", c.Sim.LegitSent, c.Real.LegitSent)
	}
}

// TestParseScenarioRejects holds each validation rule to a spec that
// breaks only that rule: the error must name the field. The accepted
// rows sit on the rules' boundaries.
func TestParseScenarioRejects(t *testing.T) {
	cases := []struct {
		spec  string
		field string // "" = accepted
	}{
		{`"users": -1`, "users"},
		{`"attackers": -1`, "attackers"},
		{`"msg_bytes": -1`, "msg_bytes"},
		{`"msg_interval_ms": -1`, "msg_interval_ms"},
		{`"attack_rate_bps": -5`, "attack_rate_bps"},
		{`"attack_pkt_size": -1`, "attack_pkt_size"},
		{`"link_bps": -1`, "link_bps"},
		{`"duration_ms": -1`, "duration_ms"},
		{`"attack_start_ms": -1`, "attack_start_ms"},
		{`"link_delay_ms": -1`, "link_delay_ms"},
		{`"duration_ms": 500, "drain_ms": 500`, "drain_ms"},
		{`"duration_ms": 500, "drain_ms": 900`, "drain_ms"},
		{`"request_fraction": -0.1`, "request_fraction"},
		{`"request_fraction": 1.5`, "request_fraction"},
		{`"wait_floor_bucket": -1`, "wait_floor_bucket"},
		{`"wait_floor_bucket": 64`, "wait_floor_bucket"},
		{`"attack_pkt_size": 1, "attack_rate_bps": 9000000000`, "attack_rate_bps"},
		{`"users": 0, "attackers": 0`, ""},
		{`"duration_ms": 501, "drain_ms": 500`, ""},
		{`"request_fraction": 1`, ""},
		{`"wait_floor_bucket": 63`, ""},
		{`"wait_shift_buckets": -1`, ""},
		{`"attack_pkt_size": 1, "attack_rate_bps": 8000000000`, ""},
	}
	for _, tc := range cases {
		_, err := ParseScenario([]byte(`{"name": "x", ` + tc.spec + `}`))
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("{%s}: rejected: %v", tc.spec, err)
		case tc.field != "" && err == nil:
			t.Errorf("{%s}: accepted, want an error naming %s", tc.spec, tc.field)
		case tc.field != "" && !strings.Contains(err.Error(), tc.field):
			t.Errorf("{%s}: error %q does not name %s", tc.spec, err, tc.field)
		}
	}
	if _, err := ParseScenario([]byte(`{"name": `)); err == nil {
		t.Error("truncated JSON accepted")
	}
}

// FuzzLoadScenario feeds arbitrary bytes to the scenario parser. It
// must never panic, and a spec it accepts must, once defaulted, meet
// what the two planes need to run without crashing: non-negative
// populations (they size slices), positive message and attacker send
// intervals (they seed rand.Int63n), a send window inside the run, and
// a wait floor inside the sketch.
func FuzzLoadScenario(f *testing.F) {
	for _, s := range Builtins {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"x","users":-1}`))
	f.Add([]byte(`{"name":"x","attack_rate_bps":-5}`))
	f.Add([]byte(`{"name":"x","attack_pkt_size":1,"attack_rate_bps":8000000001}`))
	f.Add([]byte(`{"name":"x","duration_ms":400,"request_fraction":1,"wait_floor_bucket":63}`))
	f.Add([]byte(`{"name":"x","tolerances":{"metric:tva_x":0.1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			return
		}
		d := s.withDefaults()
		if s.Name == "" || d.Users < 0 || d.Attackers < 0 || d.MsgBytes <= 0 || d.AttackPktSize <= 0 ||
			d.MsgIntervalMS <= 0 || d.attackInterval() < 1 || d.AttackStartMS < 0 || d.LinkDelayMS < 0 ||
			d.LinkBps <= 0 || d.DrainMS >= d.DurationMS ||
			d.RequestFraction <= 0 || d.RequestFraction > 1 ||
			d.WaitFloorBucket < 0 || d.WaitFloorBucket > 63 {
			t.Fatalf("accepted a spec the planes cannot run: %+v", d)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseScenario(b); err != nil {
			t.Fatalf("accepted spec rejected after a JSON round trip: %v\n%s", err, b)
		}
	})
}
