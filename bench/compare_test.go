package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.995, c, c * 1.005, c * 0.998, c * 1.002} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3} }
	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         verdict
	}{
		{"identical", tight(100), tight(100), true, 0.08, vSame},
		{"throughput down 5% inside an 8% bound", tight(100), tight(95), true, 0.08, vSame},
		{"throughput down 10% past an 8% bound", tight(100), tight(90), true, 0.08, vWorse},
		{"throughput up is never worse", tight(100), tight(130), true, 0.08, vSame},
		{"latency up 12% past a 10% bound", tight(50), tight(56), false, 0.10, vWorse},
		{"latency down", tight(50), tight(40), false, 0.10, vSame},
		{"spread wider than the bound and runs overlap", wide(100), wide(101), true, 0.08, vUnresolved},
		{"wide but every test run beats every base run", wide(100), wide(200), true, 0.08, vSame},
		{"wide, lower is better, every test run beats every base run", wide(100), wide(50), false, 0.08, vSame},
		{"wide and clearly worse is worse, not unresolved", wide(100), wide(60), true, 0.08, vWorse},
		{"single runs have no spread", []float64{100}, []float64{99}, true, 0.08, vSame},
	} {
		if got := judge(c.a, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	spec := &specFile{Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []specMetric{{Name: "kpps", Unit: "kpkt/s", Better: "higher", Bound: 0.08}}}
	run := func(v float64) resultFile {
		return resultFile{Workload: "w", EndToEnd: map[string]summary{"kpps": {Median: v, N: 10}}}
	}
	base := []resultFile{run(100), run(101), run(99)}
	if code := printComparison(spec, base, []resultFile{run(98), run(100), run(99)}); code != 0 {
		t.Fatalf("agreeing sets exit %d, want 0", code)
	}
	if code := printComparison(spec, base, []resultFile{run(80), run(81), run(79)}); code != 1 {
		t.Fatalf("a worse set exits %d, want 1", code)
	}
}
