package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"tva/internal/tvatime"
)

// Kind says how a series' samples are interpreted: a Gauge is an
// instantaneous level, a KindCounter is a cumulative total from which
// the registry derives per-second rate and EWMA at tick time.
type Kind uint8

const (
	KindGauge Kind = iota
	KindCounter
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Key   string
	Value string
}

// L builds a label set from alternating key, value strings. It panics
// on an odd count — label sets are always literal at registration
// time, so this is a programming error, not input.
func L(pairs ...string) []Label {
	if len(pairs)%2 != 0 {
		panic("metrics: L wants key, value pairs")
	}
	ls := make([]Label, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Key: pairs[i], Value: pairs[i+1]})
	}
	return ls
}

// renderLabels produces the canonical {k="v",...} form, with values
// escaped per the Prometheus text exposition rules. Empty label sets
// render as "".
func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// series is one registered time series: a metric name, a rendered
// label set, and a closure that reads the live value from whatever
// owns it (a telemetry counter, a scheduler gauge, an atomic
// instrument).
type series struct {
	name   string
	labels []Label
	id     string // name + rendered labels; the column identity
	help   string
	kind   Kind
	read   func() float64
}

// SeriesView is a snapshot of one series' identity and live value,
// handed to Each callbacks.
type SeriesView struct {
	Name   string
	Labels []Label
	ID     string
	Kind   Kind
	Value  float64
}

// Registry is a windowed time-series store. Series are registered
// up front (each with a read closure over its live source), then Tick
// samples every series into preallocated row-major rings: raw value,
// derived per-second rate (counters), and an exponentially weighted
// moving average. The first Tick seals the series set; registration
// after that returns an error, and ticking is zero-allocation from
// then on.
//
// The registry never reads a clock itself — the caller passes now, so
// the simulator drives it with virtual time and the overlay with wall
// time, producing comparable series from both data planes.
type Registry struct {
	mu     sync.Mutex
	series []series
	cap    int
	sealed bool

	times  []tvatime.Time // ring of tick times
	values []float64      // row-major: values[row*len(series)+col]
	rates  []float64      // same layout; counters only, gauges stay 0
	ewma   []float64      // latest EWMA per series
	prev   []float64      // previous raw value per series
	prevT  tvatime.Time
	next   int // ring write cursor
	total  int // ticks ever taken
}

// ewmaAlpha is the smoothing gain for the per-series EWMA: each tick
// moves the average a quarter of the way to the new sample, the same
// order of responsiveness as the overlay's queue-wait estimate.
const ewmaAlpha = 0.25

// New returns a registry retaining the most recent capacity ticks.
func New(capacity int) *Registry {
	if capacity <= 0 {
		capacity = 1
	}
	return &Registry{cap: capacity}
}

// Gauge registers an instantaneous-level series read from fn.
func (r *Registry) Gauge(name string, labels []Label, help string, fn func() float64) error {
	return r.register(name, labels, help, KindGauge, fn)
}

// Counter registers a cumulative-total series read from fn. The
// registry derives per-second rate and EWMA-of-rate at tick time.
func (r *Registry) Counter(name string, labels []Label, help string, fn func() float64) error {
	return r.register(name, labels, help, KindCounter, fn)
}

// CounterVar registers a Counter instrument as a series.
func (r *Registry) CounterVar(name string, labels []Label, help string, c *Counter) error {
	return r.Counter(name, labels, help, func() float64 { return float64(c.Value()) })
}

// SketchQuantiles registers one gauge series per requested quantile,
// labelled q="<quantile>", reading live from the sketch.
func (r *Registry) SketchQuantiles(name string, labels []Label, help string, s *Sketch, qs ...float64) error {
	for _, q := range qs {
		q := q
		ql := append(append([]Label(nil), labels...),
			Label{Key: "q", Value: strconv.FormatFloat(q, 'g', -1, 64)})
		if err := r.Gauge(name, ql, help, func() float64 { return float64(s.Quantile(q)) }); err != nil {
			return err
		}
	}
	return nil
}

func (r *Registry) register(name string, labels []Label, help string, kind Kind, fn func() float64) error {
	if fn == nil {
		return fmt.Errorf("metrics: register %s: nil read func", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return fmt.Errorf("metrics: register %s after first Tick", name)
	}
	id := name + renderLabels(labels)
	for _, s := range r.series {
		if s.id == id {
			return fmt.Errorf("metrics: duplicate series %s", id)
		}
		if s.name == name && s.kind != kind {
			return fmt.Errorf("metrics: series %s registered as both %s and %s", name, s.kind, kind)
		}
	}
	r.series = append(r.series, series{
		name: name, labels: labels, id: id, help: help, kind: kind, read: fn,
	})
	return nil
}

// seal allocates the rings. Called with mu held, on the first Tick.
func (r *Registry) seal() {
	n := len(r.series)
	r.times = make([]tvatime.Time, r.cap)
	r.values = make([]float64, r.cap*n)
	r.rates = make([]float64, r.cap*n)
	r.ewma = make([]float64, n)
	r.prev = make([]float64, n)
	r.sealed = true
}

// Tick samples every series at time now. The first call seals the
// series set; subsequent calls are allocation-free. Counters get a
// per-second rate (delta over the tick interval) and an EWMA of that
// rate; gauges get an EWMA of the raw value.
func (r *Registry) Tick(now tvatime.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sealed {
		r.seal()
	}
	n := len(r.series)
	row := r.next * n
	r.times[r.next] = now
	dt := now.Sub(r.prevT).Seconds()
	first := r.total == 0
	for i := range r.series {
		s := &r.series[i]
		v := s.read()
		r.values[row+i] = v
		x := v
		if s.kind == KindCounter {
			var rate float64
			if !first && dt > 0 {
				rate = (v - r.prev[i]) / dt
			}
			r.rates[row+i] = rate
			x = rate
		}
		if first {
			r.ewma[i] = x
		} else {
			r.ewma[i] += ewmaAlpha * (x - r.ewma[i])
		}
		r.prev[i] = v
	}
	r.prevT = now
	r.next = (r.next + 1) % r.cap
	r.total++
}

// Ticks returns how many times Tick has run.
func (r *Registry) Ticks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Len returns the number of retained rows (<= capacity).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.len()
}

func (r *Registry) len() int {
	if r.total < r.cap {
		return r.total
	}
	return r.cap
}

// rowIndex maps retained-row i (0 = oldest) to a ring slot. Called
// with mu held.
func (r *Registry) rowIndex(i int) int {
	if r.total < r.cap {
		return i
	}
	return (r.next + i) % r.cap
}

// Row copies retained row i (0 = oldest) into dst, returning the tick
// time. dst must have len >= NumSeries. Rates for counter columns are
// available via RowRates.
func (r *Registry) Row(i int, dst []float64) tvatime.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := r.rowIndex(i)
	copy(dst, r.values[slot*len(r.series):(slot+1)*len(r.series)])
	return r.times[slot]
}

// RowRates copies retained row i's derived rates into dst.
func (r *Registry) RowRates(i int, dst []float64) tvatime.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := r.rowIndex(i)
	copy(dst, r.rates[slot*len(r.series):(slot+1)*len(r.series)])
	return r.times[slot]
}

// NumSeries returns the number of registered series.
func (r *Registry) NumSeries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.series)
}

// IDs returns the series identities in registration order (the column
// order of Row, WriteCSV, and WriteJSON).
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, len(r.series))
	for i, s := range r.series {
		ids[i] = s.id
	}
	return ids
}

// EWMA returns the latest exponentially weighted moving average for
// series column i (rate for counters, value for gauges).
func (r *Registry) EWMA(i int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ewma[i]
}

// Each calls fn for every series with its live (not last-ticked)
// value, in registration order.
func (r *Registry) Each(fn func(SeriesView)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.series {
		s := &r.series[i]
		fn(SeriesView{Name: s.name, Labels: s.labels, ID: s.id, Kind: s.kind, Value: s.read()})
	}
}

// formatValue renders a sample compactly and deterministically:
// integral values print without a decimal point, everything else in
// Go 'g' formatting, so same-seed runs produce byte-identical files.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// csvQuote wraps a field in quotes when it contains CSV-significant
// bytes (series IDs carry {reason="..."} label syntax).
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// columnIDs returns the export column schema shared by every tabular
// writer: t_sec, one column per series ID (registration order), then
// one <id>:rate column per counter series. WriteCSV and WriteJSON
// both render exactly this list (they used to duplicate it, which is
// how format drift starts), and the row loops below emit values in
// the same order. Callers hold r.mu.
func (r *Registry) columnIDs() []string {
	cols := make([]string, 0, 1+2*len(r.series))
	cols = append(cols, "t_sec")
	for _, s := range r.series {
		cols = append(cols, s.id)
	}
	for _, s := range r.series {
		if s.kind == KindCounter {
			cols = append(cols, s.id+":rate")
		}
	}
	return cols
}

// WriteCSV writes the retained window as CSV: a t_sec column, one
// column per series (cumulative value for counters, level for
// gauges), and one trailing rate column per counter series, named
// <id>:rate. Output is byte-stable for identical tick histories.
func (r *Registry) WriteCSV(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := &errWriter{w: w}
	for i, id := range r.columnIDs() {
		if i > 0 {
			bw.WriteString(",")
		}
		bw.WriteString(csvQuote(id))
	}
	bw.WriteString("\n")
	n := len(r.series)
	for i := 0; i < r.len(); i++ {
		slot := r.rowIndex(i)
		bw.WriteString(strconv.FormatFloat(r.times[slot].Sub(0).Seconds(), 'f', 6, 64))
		for j := 0; j < n; j++ {
			bw.WriteString(",")
			bw.WriteString(formatValue(r.values[slot*n+j]))
		}
		for j := 0; j < n; j++ {
			if r.series[j].kind == KindCounter {
				bw.WriteString(",")
				bw.WriteString(formatValue(r.rates[slot*n+j]))
			}
		}
		bw.WriteString("\n")
	}
	return bw.err
}

// WriteJSON writes the retained window as a single JSON object with
// "columns" (t_sec plus series IDs plus counter rate columns) and
// "rows" of numbers, one per tick.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := &errWriter{w: w}
	bw.WriteString(`{"columns":[`)
	for i, id := range r.columnIDs() {
		if i > 0 {
			bw.WriteString(",")
		}
		bw.WriteString(strconv.Quote(id))
	}
	bw.WriteString(`],"rows":[`)
	n := len(r.series)
	for i := 0; i < r.len(); i++ {
		if i > 0 {
			bw.WriteString(",")
		}
		slot := r.rowIndex(i)
		bw.WriteString("[")
		bw.WriteString(strconv.FormatFloat(r.times[slot].Sub(0).Seconds(), 'f', 6, 64))
		for j := 0; j < n; j++ {
			bw.WriteString(",")
			bw.WriteString(formatValue(r.values[slot*n+j]))
		}
		for j := 0; j < n; j++ {
			if r.series[j].kind == KindCounter {
				bw.WriteString(",")
				bw.WriteString(formatValue(r.rates[slot*n+j]))
			}
		}
		bw.WriteString("]")
	}
	bw.WriteString("]}\n")
	return bw.err
}

// errWriter folds write errors into one sticky error so the encoders
// above stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) WriteString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}
