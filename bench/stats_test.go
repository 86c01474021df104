package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v, %v; python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Fatalf("quartiles(3,1) = %v, %v; python gives 0.5, 3.5", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Fatalf("one value is its own quartiles, got %v, %v", q1, q3)
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 { // (8.25-2.75)/5.5
		t.Fatalf("spread(1..10) = %v, want 1", s)
	}
}

func TestMedianOfSlices(t *testing.T) {
	// One stalled slice (a 200 ms scheduler stall on a shared machine)
	// moves the mean a long way and the median not at all.
	slices := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 20}
	s := summarize(slices)
	if s.Median != 100 || s.N != 10 {
		t.Fatalf("median slice = %v over %d, want 100 over 10", s.Median, s.N)
	}
	if s.Q1 > 100 || s.Q3 < 100 {
		t.Fatalf("quartiles %v..%v do not bracket the median", s.Q1, s.Q3)
	}
	// A lost packet is +Inf: the median stays finite while more than
	// half arrived, and turns infinite when half or more are lost.
	if m := median([]float64{1, 2, 3, inf, inf}); m != 3 {
		t.Fatalf("median with 2 of 5 lost = %v, want 3", m)
	}
	if m := median([]float64{1, inf, inf}); !math.IsInf(m, 1) {
		t.Fatalf("median with 2 of 3 lost = %v, want +Inf", m)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{5, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		pct, v := tailPercentile(seq(c.n), 10)
		if pct != c.pct {
			t.Errorf("n=%d: picked p%v, want p%v", c.n, pct, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if pct > 50 && beyond < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, pct, beyond)
		}
	}
}

func TestSlicerDropsSkippedSlices(t *testing.T) {
	zero := func() int64 { return 0 }
	s := newSlicer(0, 1000, 10, zero) // ten slices of 100 ns
	if s.tick(50, 5) {
		t.Fatal("phase over inside the first slice")
	}
	s.tick(100, 5) // closes slice 0 with 10 packets
	s.tick(450, 7) // a stall: closes one slice covering 100..450, skips to slice 4
	if len(s.Pkts) != 2 || s.Pkts[0] != 10 || s.Pkts[1] != 7 {
		t.Fatalf("slices %v, want [10 7]", s.Pkts)
	}
	if s.Wall[1] != 350e-9 {
		t.Fatalf("stalled slice covers %v s, want 350 ns", s.Wall[1])
	}
	if !s.tick(1000, 1) {
		t.Fatal("phase not over at its end")
	}
	// Rates use the wall time each slice really covered.
	if k := s.kpps(); len(k) != 3 || math.Abs(k[1]-7/350e-9/1e3) > 1e-6 {
		t.Fatalf("kpps %v", k)
	}
}
