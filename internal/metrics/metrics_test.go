package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"tva/internal/tvatime"
)

func TestInstruments(t *testing.T) {
	var c Counter
	c.Record(3)
	c.Record(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}

	var s Sketch
	if s.Quantile(0.5) != 0 {
		t.Fatalf("empty sketch quantile = %d, want 0", s.Quantile(0.5))
	}
	for i := 0; i < 90; i++ {
		s.Observe(100) // bucket upper edge 128
	}
	for i := 0; i < 10; i++ {
		s.Observe(100000) // bucket upper edge 131072
	}
	if got := s.Count(); got != 100 {
		t.Fatalf("sketch count = %d, want 100", got)
	}
	if q := s.Quantile(0.5); q != 128 {
		t.Fatalf("p50 = %d, want 128", q)
	}
	if q := s.Quantile(0.99); q != 131072 {
		t.Fatalf("p99 = %d, want 131072", q)
	}
	s.Observe(0)
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("p0 with zero sample = %d, want 0", q)
	}
	if got := s.Count(); got != 101 {
		t.Fatalf("sketch count = %d, want 101", got)
	}
}

// TestSketchBucketBoundaries pins the power-of-two bucket edges:
// bucket 0 holds v <= 0, bucket i holds [2^(i-1), 2^i), and Quantile
// answers with the upper edge of the bucket a lone sample landed in.
func TestSketchBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
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
		{1 << 62, 63},
		{math.MaxInt64, 63},
	}
	for _, tc := range cases {
		var s Sketch
		s.Observe(tc.v)
		counts := s.Counts()
		if counts[tc.bucket] != 1 {
			landed := -1
			for i, n := range counts {
				if n == 1 {
					landed = i
				}
			}
			t.Errorf("Observe(%d): landed in bucket %d, want %d", tc.v, landed, tc.bucket)
		}
		var upper int64
		switch {
		case tc.bucket == SketchBuckets-1:
			upper = math.MaxInt64
		case tc.bucket > 0:
			lo := int64(1) << (tc.bucket - 1)
			if tc.v < lo || tc.v >= 2*lo {
				t.Errorf("bucket %d bounds [%d,%d) exclude sample %d", tc.bucket, lo, 2*lo, tc.v)
			}
			upper = 2 * lo
		}
		for _, q := range []float64{0, 0.5, 1} {
			if got := s.Quantile(q); got != upper {
				t.Errorf("Observe(%d): Quantile(%v) = %d, want %d", tc.v, q, got, upper)
			}
		}
	}
}

// TestSketchConcurrentObserve runs four writers against one reader
// (meaningful under -race): every observation is counted exactly once,
// and no quantile read mid-run exceeds the upper edge of the bucket
// holding the largest sample any writer observes.
func TestSketchConcurrentObserve(t *testing.T) {
	const (
		writers = 4
		perW    = 20000
		maxV    = 99999 // bit length 17: bucket upper edge 1<<17
		edge    = int64(1) << 17
	)
	var s Sketch
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				s.Observe(int64((j*7919 + w) % (maxV + 1)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if got := s.Count(); got != writers*perW {
				t.Fatalf("Count = %d, want %d", got, writers*perW)
			}
			return
		default:
		}
		for _, q := range []float64{0.5, 0.99, 1} {
			if got := s.Quantile(q); got > edge {
				t.Fatalf("read %d: Quantile(%v) = %d, above the largest sample's edge %d", reads, q, got, edge)
			}
		}
		var sum uint64
		for _, n := range s.Counts() {
			sum += n
		}
		if n := s.Count(); sum > writers*perW || n > writers*perW {
			t.Fatalf("read %d: Counts sum %d / Count %d exceed the %d observations", reads, sum, n, writers*perW)
		}
	}
}

func TestRegistryRatesAndEWMA(t *testing.T) {
	r := New(8)
	var pkts Counter
	var depth float64
	if err := r.CounterVar("tva_test_pkts_total", nil, "packets", &pkts); err != nil {
		t.Fatal(err)
	}
	if err := r.Gauge("tva_test_depth", L("class", "regular"), "queue depth", func() float64 { return depth }); err != nil {
		t.Fatal(err)
	}

	sec := func(s float64) tvatime.Time { return tvatime.FromSeconds(s) }
	depth = 4
	r.Tick(sec(0))
	pkts.Record(100)
	depth = 8
	r.Tick(sec(1))
	pkts.Record(300)
	r.Tick(sec(2))

	if n := r.NumSeries(); n != 2 {
		t.Fatalf("NumSeries = %d, want 2", n)
	}
	ids := r.IDs()
	if ids[0] != "tva_test_pkts_total" || ids[1] != `tva_test_depth{class="regular"}` {
		t.Fatalf("IDs = %q", ids)
	}

	row := make([]float64, 2)
	rates := make([]float64, 2)
	if at := r.Row(2, row); at != sec(2) {
		t.Fatalf("row 2 time = %v", at)
	}
	r.RowRates(2, rates)
	if row[0] != 400 || rates[0] != 300 {
		t.Fatalf("counter value/rate = %v/%v, want 400/300", row[0], rates[0])
	}
	if row[1] != 8 || rates[1] != 0 {
		t.Fatalf("gauge value/rate = %v/%v, want 8/0", row[1], rates[1])
	}

	// EWMA of counter rate: seeded 0, then 0+.25*(100-0)=25, then
	// 25+.25*(300-25)=93.75.
	if got := r.EWMA(0); math.Abs(got-93.75) > 1e-9 {
		t.Fatalf("counter EWMA = %v, want 93.75", got)
	}
	// EWMA of gauge value: seeded 4, then 5, then 5.75.
	if got := r.EWMA(1); math.Abs(got-5.75) > 1e-9 {
		t.Fatalf("gauge EWMA = %v, want 5.75", got)
	}
}

func TestRegistryWindowWraps(t *testing.T) {
	r := New(3)
	var c Counter
	if err := r.CounterVar("tva_test_total", nil, "", &c); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		c.Record(uint64(i))
		r.Tick(tvatime.FromSeconds(float64(i)))
	}
	if r.Len() != 3 || r.Ticks() != 5 {
		t.Fatalf("Len=%d Ticks=%d, want 3/5", r.Len(), r.Ticks())
	}
	row := make([]float64, 1)
	if at := r.Row(0, row); at != tvatime.FromSeconds(3) {
		t.Fatalf("oldest retained row at %v, want t=3s", at)
	}
	if at := r.Row(2, row); at != tvatime.FromSeconds(5) {
		t.Fatalf("newest retained row at %v, want t=5s", at)
	}
	if row[0] != 1+2+3+4+5 {
		t.Fatalf("newest value = %v, want 15", row[0])
	}
}

func TestRegistryRegistrationErrors(t *testing.T) {
	r := New(4)
	var c Counter
	if err := r.CounterVar("tva_x_total", nil, "", &c); err != nil {
		t.Fatal(err)
	}
	if err := r.CounterVar("tva_x_total", nil, "", &c); err == nil {
		t.Fatal("duplicate series registration succeeded")
	}
	if err := r.Gauge("tva_x_total", L("a", "b"), "", func() float64 { return 0 }); err == nil {
		t.Fatal("kind conflict for one metric name succeeded")
	}
	if err := r.Gauge("tva_nilfn", nil, "", nil); err == nil {
		t.Fatal("nil read func accepted")
	}
	r.Tick(0)
	err := r.CounterVar("tva_late_total", nil, "", &c)
	if err == nil || !strings.Contains(err.Error(), "after first Tick") {
		t.Fatalf("post-seal registration error = %v", err)
	}
	if r.NumSeries() != 1 {
		t.Fatalf("failed registrations mutated the series set: %d", r.NumSeries())
	}
}

func TestWriteCSVAndJSONStable(t *testing.T) {
	build := func() *Registry {
		r := New(4)
		var c Counter
		g := 1.5
		_ = r.CounterVar("tva_drops_total", L("reason", "regular-queue-full"), "drops", &c)
		_ = r.Gauge("tva_fill", nil, "fill", func() float64 { return g })
		r.Tick(tvatime.FromSeconds(0))
		c.Record(10)
		g = 3
		r.Tick(tvatime.FromSeconds(0.5))
		return r
	}
	var a, b strings.Builder
	if err := build().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("CSV not byte-stable:\n%s\nvs\n%s", a.String(), b.String())
	}
	want := `t_sec,"tva_drops_total{reason=""regular-queue-full""}",tva_fill,"tva_drops_total{reason=""regular-queue-full""}:rate"` + "\n" +
		"0.000000,0,1.5,0\n0.500000,10,3,20\n"
	if a.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", a.String(), want)
	}

	var j strings.Builder
	if err := build().WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"columns":["t_sec","tva_drops_total{reason=\"regular-queue-full\"}","tva_fill","tva_drops_total{reason=\"regular-queue-full\"}:rate"],"rows":[[0.000000,0,1.5,0],[0.500000,10,3,20]]}` + "\n"
	if j.String() != wantJSON {
		t.Fatalf("JSON:\n%s\nwant:\n%s", j.String(), wantJSON)
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := New(4)
	var c Counter
	var s Sketch
	if err := r.CounterVar("tva_pkts_total", L("port", "10.0.0.1:7001"), "Forwarded packets.", &c); err != nil {
		t.Fatal(err)
	}
	if err := r.CounterVar("tva_pkts_total", L("port", "10.0.0.2:7002"), "Forwarded packets.", &c); err != nil {
		t.Fatal(err)
	}
	if err := r.Gauge("tva_fill", nil, "Burst fill.", func() float64 { return 3.25 }); err != nil {
		t.Fatal(err)
	}
	if err := r.SketchQuantiles("tva_wait_ns", nil, "Queue wait.", &s, 0.5, 0.99); err != nil {
		t.Fatal(err)
	}
	c.Record(42)
	s.Observe(1000)
	r.Tick(tvatime.FromSeconds(0))
	c.Record(58)
	r.Tick(tvatime.FromSeconds(1))

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseProm(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("self-emitted exposition rejected: %v\n%s", err, out.String())
	}
	if sc.Types["tva_pkts_total"] != "counter" || sc.Types["tva_fill"] != "gauge" {
		t.Fatalf("types = %v", sc.Types)
	}
	if got := len(sc.Select("tva_pkts_total")); got != 2 {
		t.Fatalf("pkts series = %d, want 2", got)
	}
	q, ok := sc.Get("tva_wait_ns")
	if !ok || q.Label("q") != "0.5" {
		t.Fatalf("quantile sample = %+v ok=%v", q, ok)
	}
	// Derived series present after two ticks, with the tick-time rate.
	rate := sc.Select("tva_pkts_total:rate")
	if len(rate) != 2 {
		t.Fatalf("rate series = %d, want 2", len(rate))
	}
	if rate[0].Value != 58 {
		t.Fatalf("rate = %v, want 58", rate[0].Value)
	}
	if !sc.Has("tva_pkts_total:ewma") {
		t.Fatal("missing ewma series")
	}

	// Before the second tick there is no interval, so no derived
	// series.
	r2 := New(4)
	_ = r2.CounterVar("tva_pkts_total", nil, "", &c)
	r2.Tick(0)
	var out2 strings.Builder
	_ = r2.WritePrometheus(&out2)
	if strings.Contains(out2.String(), ":rate") {
		t.Fatalf("rate series before two ticks:\n%s", out2.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	id := renderLabels(L("path", `a\b"c`+"\n"))
	want := `{path="a\\b\"c\n"}`
	if id != want {
		t.Fatalf("rendered = %s, want %s", id, want)
	}
	sc, err := ParseProm(strings.NewReader(`m` + id + ` 1` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Samples[0].Label("path") != `a\b"c`+"\n" {
		t.Fatalf("roundtrip = %q", sc.Samples[0].Label("path"))
	}
}

func TestTickNoAllocs(t *testing.T) {
	r := New(16)
	var c Counter
	var g float64
	var s Sketch
	_ = r.CounterVar("tva_pkts_total", nil, "", &c)
	_ = r.Gauge("tva_fill", nil, "", func() float64 { return g })
	_ = r.SketchQuantiles("tva_wait_ns", nil, "", &s, 0.5, 0.99)
	r.Tick(0) // seal
	var now tvatime.Time
	if n := testing.AllocsPerRun(100, func() {
		c.Record(1)
		g++
		s.Observe(512)
		now += tvatime.Time(tvatime.Millisecond)
		r.Tick(now)
	}); n != 0 {
		t.Fatalf("instrument+tick allocates %v per run, want 0", n)
	}
}
