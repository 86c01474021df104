package metrics

import (
	"strings"
	"testing"

	"tva/internal/trace"
	"tva/internal/tvatime"
)

// TestHealthStateNamesMatchTrace pins the duplicate state-name table
// in the trace package (kept there so trace need not import metrics)
// to this package's State strings.
func TestHealthStateNamesMatchTrace(t *testing.T) {
	for s := 0; s < NumStates; s++ {
		if got, want := trace.HealthStateName(uint8(s)), State(s).String(); got != want {
			t.Errorf("trace.HealthStateName(%d) = %q, metrics says %q", s, got, want)
		}
	}
}

// tickSeq feeds the detector a cumulative-drop series sampled at 1s
// intervals and returns the transition log.
func tickSeq(d *Detector, rates []float64) {
	var cum float64
	for i, r := range rates {
		cum += r
		d.ObserveTick(tvatime.FromSeconds(float64(i+1)), cum, 0)
	}
}

func TestDetectorAttackLifecycle(t *testing.T) {
	d := NewDetector()
	var fired []Transition
	d.OnTransition = func(tr Transition) { fired = append(fired, tr) }

	// Quiet baseline, then a sustained flood, then quiet again.
	rates := []float64{0, 2, 1, 2, 1, // baseline
		5000, 5000, 5000, 5000, 5000, // attack
		1, 0, 1, 0, 1, 0, 1, 0, 1, 0} // recovery
	tickSeq(d, rates)

	var got []string
	for _, tr := range d.Transitions() {
		got = append(got, tr.From.String()+">"+tr.To.String())
	}
	want := []string{
		"healthy>degraded",
		"degraded>under-attack",
		"under-attack>recovered",
		"recovered>healthy",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	if len(fired) != len(d.Transitions()) {
		t.Fatalf("OnTransition fired %d times, log has %d", len(fired), len(d.Transitions()))
	}
	// First hot tick is sample index 5 (0-based): degraded fires
	// there; under-attack after onsetTicks more hot ticks.
	if d.Transitions()[0].Sample != 5 {
		t.Fatalf("degraded at sample %d, want 5", d.Transitions()[0].Sample)
	}
	if d.Transitions()[1].Sample != 8 {
		t.Fatalf("under-attack at sample %d, want 8", d.Transitions()[1].Sample)
	}
	if d.State() != Healthy {
		t.Fatalf("final state %v, want healthy", d.State())
	}
}

func TestDetectorDeterministicReplay(t *testing.T) {
	run := func() []string {
		d := NewDetector()
		rates := []float64{0, 1, 0, 2, 900, 900, 900, 900, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		tickSeq(d, rates)
		var out []string
		for _, tr := range d.Transitions() {
			out = append(out, tr.String())
		}
		return out
	}
	a, b := run(), run()
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Fatalf("same input produced different transitions:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("flood produced no transitions")
	}
	// The rendered line is what tvasim prints and metrics-smoke diffs.
	if !strings.Contains(a[0], "sample=") || !strings.Contains(a[0], "drop-rate=") {
		t.Fatalf("transition line missing fields: %s", a[0])
	}
}

func TestDetectorBaselineFrozenDuringAttack(t *testing.T) {
	d := NewDetector()
	// Baseline ~10 pps, then a long attack at 10k pps: if the attack
	// leaked into the baseline the detector would adapt and declare
	// recovery while the flood still runs.
	rates := make([]float64, 0, 64)
	for i := 0; i < 8; i++ {
		rates = append(rates, 10)
	}
	for i := 0; i < 40; i++ {
		rates = append(rates, 10000)
	}
	tickSeq(d, rates)
	if d.State() != UnderAttack {
		t.Fatalf("state after sustained flood = %v, want under-attack", d.State())
	}
}

func TestDetectorTransitionLogBounded(t *testing.T) {
	d := NewDetector()
	// One hot tick after every recoverTicks cool ones thrashes
	// degraded<->recovered: two transitions a cycle.
	var cum float64
	for i := 0; i < (recoverTicks+1)*maxTransitions; i++ {
		if i%(recoverTicks+1) == 1 {
			cum += 1000
		}
		d.ObserveTick(tvatime.FromSeconds(float64(i)), cum, 0)
	}
	if len(d.Transitions()) != maxTransitions {
		t.Fatalf("log len = %d, want cap %d", len(d.Transitions()), maxTransitions)
	}
	if d.Overflow() == 0 {
		t.Fatal("expected overflow count after thrash")
	}
}

func TestDetectorTickNoAllocs(t *testing.T) {
	d := NewDetector()
	var now tvatime.Time
	var cum float64
	if n := testing.AllocsPerRun(200, func() {
		now += tvatime.Time(tvatime.Second)
		cum += 3
		d.ObserveTick(now, cum, 1)
	}); n != 0 {
		t.Fatalf("ObserveTick allocates %v per run, want 0", n)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	bad := []string{
		"metric{ 1\n",                        // unterminated label block
		"metric{a=b} 1\n",                    // unquoted label value
		"metric 1 2 3\n",                     // trailing junk
		"metric notanumber\n",                // bad value
		"# TYPE metric wat\nmetric 1\n",      // unknown type
		"# TYPE m counter\n# TYPE m gauge\n", // duplicate TYPE
		"m 1\nm 1\n",                         // duplicate series
		"{a=\"b\"} 1\n",                      // missing name
		"m{__name__=\"x\"} 1\n",              // reserved label
	}
	for _, in := range bad {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	ok := "# some comment\nm{a=\"b\",c=\"d\"} 1.5 1700000000\nm2 +Inf\n"
	sc, err := ParseProm(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("rejected valid exposition: %v", err)
	}
	if len(sc.Samples) != 2 || sc.Samples[0].Label("c") != "d" {
		t.Fatalf("samples = %+v", sc.Samples)
	}
}
