package telemetry

import (
	"testing"

	"tva/internal/tvatime"
)

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

// TestHistogramBucketBoundaries pins the power-of-two bucket edges:
// bucket 0 holds d <= 0, bucket i holds [2^(i-1), 2^i).
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      tvatime.Duration
		bucket int
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{tvatime.Duration(1 << 62), 63},
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.d)
		if got := h.Bucket(tc.bucket); got != 1 {
			// Find where it actually landed for the failure message.
			landed := -1
			for i := 0; i < h.NumBuckets(); i++ {
				if h.Bucket(i) == 1 {
					landed = i
				}
			}
			t.Errorf("Observe(%d): landed in bucket %d, want %d", tc.d, landed, tc.bucket)
		}
		if tc.bucket > 0 && tc.bucket < 63 {
			lo := BucketLower(tc.bucket)
			if int64(tc.d) < lo || int64(tc.d) >= lo*2 {
				t.Errorf("bucket %d bounds [%d,%d) exclude sample %d", tc.bucket, lo, lo*2, tc.d)
			}
		}
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, d := range []tvatime.Duration{10, 20, 30, 40} {
		h.Observe(d)
	}
	if h.Count() != 4 || h.Sum() != 100 || h.Mean() != 25 {
		t.Fatalf("count/sum/mean = %d/%d/%d, want 4/100/25", h.Count(), h.Sum(), h.Mean())
	}
	// All samples fall in [8,64); the median upper bound must too.
	if q := h.Quantile(0.5); q < 16 || q > 64 {
		t.Fatalf("Quantile(0.5) = %d, want within (16,64]", q)
	}
	var h2 Histogram
	h2.Observe(1000)
	h2.Merge(&h)
	if h2.Count() != 5 || h2.Sum() != 1100 {
		t.Fatalf("after merge count/sum = %d/%d, want 5/1100", h2.Count(), h2.Sum())
	}
}
