package telemetry

import "testing"

func TestDropReasonNames(t *testing.T) {
	seen := map[string]bool{}
	for r := DropReason(0); int(r) < NumDropReasons; r++ {
		name := r.String()
		if name == "" || name == "unknown" {
			t.Fatalf("reason %d has no name", r)
		}
		if seen[name] {
			t.Fatalf("duplicate reason name %q", name)
		}
		seen[name] = true
	}
	if DropReason(200).String() != "unknown" {
		t.Fatalf("out-of-range reason should stringify as unknown")
	}
}

func TestDropCounters(t *testing.T) {
	var c DropCounters
	c.Inc(DropCapExpired)
	c.Inc(DropCapExpired)
	c.Add(DropFilter, 3)
	if got := c.Get(DropCapExpired); got != 2 {
		t.Fatalf("Get(cap-expired) = %d, want 2", got)
	}
	if got := c.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	var d DropCounters
	d.Inc(DropCapInvalid)
	d.Merge(&c)
	if got := d.Total(); got != 6 {
		t.Fatalf("merged Total = %d, want 6", got)
	}
}
