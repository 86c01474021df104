// Command tvasim regenerates the paper's simulation figures (§5):
//
//	tvasim -fig 8   # legacy packet floods          (Fig. 8)
//	tvasim -fig 9   # request packet floods         (Fig. 9)
//	tvasim -fig 10  # authorized floods (colluder)  (Fig. 10)
//	tvasim -fig 11  # imprecise authorization       (Fig. 11)
//	tvasim -fig all
//
// Output is whitespace-separated columns, one series per scheme, in
// the same shape as the paper's plots: completion fraction and average
// transfer time versus attacker count (Figs. 8–10), or per-transfer
// times versus start time (Fig. 11).
//
// With -metrics FILE (and/or -trace N) tvasim instead runs one
// instrumented simulation — the first scheme in -schemes at the
// largest attacker count — and writes the streaming metrics registry
// sampled every -metrics-interval of virtual time to FILE (.csv by
// extension, JSON otherwise), along with a drop-attribution summary
// and the attack-onset health transition log. The registry carries
// the same series names tvarouter serves at /metrics, so offline
// tooling reads both data planes identically; -prom FILE additionally
// writes the final Prometheus text-exposition snapshot:
//
//	tvasim -fig 8 -schemes tva -metrics out.json
//	tvasim -fig 8 -schemes tva -metrics out.csv -prom out.prom
//
// With -trace N, the instrumented run attaches the span flight
// recorder (internal/trace) and prints its last N spans, one line per
// lifecycle edge (send, verdict, demote, enqueue, dequeue, tx, drop,
// deliver, health):
//
//	tvasim -fig 8 -schemes tva -trace 20
//
// With -tracefile FILE, it writes the recorder's binary span dump to
// FILE for offline analysis with tvatrace:
//
//	tvasim -fig 9 -schemes tva -tracefile run.trace
//	tvatrace summary run.trace
//
// Even without -tracefile, an instrumented run with -trace-spans > 0
// keeps the recorder armed and dumps it automatically (to
// flightrec.trace) if the drop-accounting invariant fails or the
// drop-storm detector fires.
//
// With -fault, tvasim runs the recovery experiments instead of a
// figure: a bottleneck loss-rate sweep or a router restart-time sweep,
// reporting completion fraction and (for restarts) time to recover.
// Like the figure sweeps they run across -workers and are
// bit-identical across same-seed runs at any worker count:
//
//	tvasim -fault loss    -loss-rates 0,0.05,0.1,0.2 -duration 30
//	tvasim -fault restart -restart-times 10,15,20 -duration 30
//
// With -fairness, tvasim sweeps the legitimate-sender count instead of
// the attacker count and reports how evenly the survivors shared the
// bottleneck — Jain's index and the best/worst goodput ratio per run
// (Fig. 11-style fairness vs. sender population, EXPERIMENTS.md):
//
//	tvasim -fairness -schemes tva,internet -users 10,20,50 -duration 30
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"tva/internal/exp"
	"tva/internal/flowstats"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 8, 9, 10, 11 or all")
	schemesFlag := flag.String("schemes", "internet,siff,pushback,tva", "comma-separated schemes")
	attackersFlag := flag.String("attackers", "1,2,5,10,20,40,70,100", "attacker counts for figs 8-10")
	durationSec := flag.Float64("duration", 120, "simulated seconds per run")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS); results are identical at any worker count")
	metricsOut := flag.String("metrics", "", "run one instrumented simulation and write its metrics time series to this file (.csv or .json)")
	promOut := flag.String("prom", "", "with an instrumented run, write the final Prometheus text-exposition snapshot to this file")
	metricsIntervalMs := flag.Float64("metrics-interval", 100, "metrics/health tick interval of an instrumented run, in virtual milliseconds (> 0)")
	traceN := flag.Int("trace", 0, "run one instrumented simulation with the span flight recorder on and print its last N spans")
	traceFile := flag.String("tracefile", "", "run one instrumented simulation with the span flight recorder on and write the binary dump here (query with tvatrace)")
	traceSpans := flag.Int("trace-spans", 0, "flight-recorder capacity in spans (0 = default with -trace or -tracefile, off otherwise)")
	stormPkts := flag.Int("storm-pkts", 1000, "drop-storm threshold (bottleneck drops per 100ms window) that triggers an automatic flight-recorder dump; 0 disables")
	faultMode := flag.String("fault", "", "recovery experiment: 'loss' (bottleneck loss sweep) or 'restart' (router restart sweep)")
	fairness := flag.Bool("fairness", false, "sweep legitimate-sender counts (-users) instead of attacker counts and report per-run fairness")
	usersFlag := flag.String("users", "10,20,50,100", "legitimate-sender counts for -fairness")
	lossRatesFlag := flag.String("loss-rates", "0,0.05,0.1,0.2", "loss probabilities for -fault loss")
	restartTimesFlag := flag.String("restart-times", "10,20,30", "restart times in seconds for -fault restart")
	flag.Parse()

	// Every flag value is checked before anything runs: exp reads a
	// zero as "use the default" and a negative count as "none", so an
	// unchecked value would run something other than what the output
	// row says.
	schemes, err := parseSchemes(*schemesFlag)
	if err != nil {
		badFlag(err)
	}
	counts, err := parseList("attackers", *attackersFlag, strconv.Atoi,
		func(k int) bool { return k >= 0 }, "counts ≥ 0")
	if err != nil {
		badFlag(err)
	}
	dur := tvatime.FromSeconds(*durationSec).Sub(0)
	if dur <= 0 {
		badFlag(fmt.Errorf("-duration %g: want a positive number of seconds", *durationSec))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"trace", *traceN}, {"trace-spans", *traceSpans}, {"storm-pkts", *stormPkts}} {
		if f.v < 0 {
			badFlag(fmt.Errorf("-%s %d: want a count ≥ 0", f.name, f.v))
		}
	}

	if *faultMode != "" {
		if err := faultSweep(*faultMode, schemes, dur, *seed, *workers, *lossRatesFlag, *restartTimesFlag); err != nil {
			badFlag(err)
		}
		return
	}

	if *fairness {
		userCounts, err := parseList("users", *usersFlag, strconv.Atoi,
			func(n int) bool { return n >= 1 }, "counts ≥ 1")
		if err != nil {
			badFlag(err)
		}
		fairnessSweep(schemes, userCounts, counts, dur, *seed, *workers)
		return
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = []string{"8", "9", "10", "11"}
	}

	if *metricsOut != "" || *promOut != "" || *traceN > 0 || *traceFile != "" || *traceSpans > 0 {
		if len(figs) != 1 {
			badFlag(errors.New("-metrics/-prom/-trace/-tracefile need a single -fig (8, 9, 10 or 11)"))
		}
		interval := tvatime.Duration(*metricsIntervalMs * float64(tvatime.Millisecond))
		if interval <= 0 {
			badFlag(fmt.Errorf("-metrics-interval %g: want a positive number of milliseconds", *metricsIntervalMs))
		}
		if err := instrumentedRun(figs[0], schemes, counts, dur, *seed,
			*metricsOut, *promOut, interval, *traceN,
			*traceFile, *traceSpans, *stormPkts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	for _, f := range figs {
		switch f {
		case "8":
			sweepFigure("Figure 8: legacy traffic flood", exp.AttackLegacyFlood, schemes, counts, dur, *seed, *workers)
		case "9":
			sweepFigure("Figure 9: request packet flood", exp.AttackRequestFlood, schemes, counts, dur, *seed, *workers)
		case "10":
			sweepFigure("Figure 10: authorized traffic flood (colluder)", exp.AttackAuthorizedFlood, schemes, counts, dur, *seed, *workers)
		case "11":
			figure11(schemes, dur, *seed, *workers)
		default:
			badFlag(fmt.Errorf("unknown figure %q", f))
		}
	}
}

// badFlag reports a flag value tvasim refuses and exits 2, as the flag
// package does for one it cannot parse.
func badFlag(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// figAttack maps a figure number to its attack workload.
func figAttack(fig string) (exp.Attack, error) {
	switch fig {
	case "8":
		return exp.AttackLegacyFlood, nil
	case "9":
		return exp.AttackRequestFlood, nil
	case "10":
		return exp.AttackAuthorizedFlood, nil
	case "11":
		return exp.AttackImpreciseAuth, nil
	}
	return 0, fmt.Errorf("unknown figure %q", fig)
}

// instrumentedRun executes one simulation with the metrics registry
// (and optionally the flight recorder) on, writes the time series,
// and prints the drop-attribution summary plus the health transition
// log. It verifies the accounting invariant: the per-reason drop
// counters must sum to the bottleneck's drop total.
func instrumentedRun(fig string, schemes []exp.Scheme, counts []int, dur tvatime.Duration, seed int64, out, promOut string, interval tvatime.Duration, traceN int, traceFile string, traceSpans, stormPkts int) error {
	attack, err := figAttack(fig)
	if err != nil {
		return err
	}
	scheme := schemes[0]
	attackers := 0
	for _, k := range counts {
		if k > attackers {
			attackers = k
		}
	}
	cfg := exp.Config{
		Scheme:          scheme,
		Attack:          attack,
		NumAttackers:    attackers,
		Duration:        dur,
		Seed:            seed,
		MetricsInterval: interval,
	}
	// -tracefile and -trace-spans arm the recorder for a dump, and
	// with it the drop-storm auto-dump; -trace alone only prints.
	if traceFile != "" || traceSpans > 0 {
		cfg.DropStormPkts = stormPkts
	}
	if traceSpans <= 0 && (traceFile != "" || traceN > 0) {
		traceSpans = trace.DefaultCapacity
	}
	cfg.SpanCapacity = traceSpans
	if attack == exp.AttackImpreciseAuth {
		cfg.NumAttackers = 100
		cfg.AttackStart = 10 * tvatime.Second
	}
	res := exp.Run(cfg)
	tel := &res.Telemetry

	fmt.Printf("# instrumented run: fig %s, scheme %s, %d attackers, %.0fs\n",
		fig, scheme, cfg.NumAttackers, dur.Seconds())
	fmt.Printf("completion=%.3f avg-xfer=%.3fs utilization=%.3f goodput=%d bytes\n",
		res.CompletionFraction(), res.AvgTransferTime(), res.BottleneckUtilization, tel.GoodputBytes)
	fmt.Printf("fairness: jain=%.4f max/min=%.2f over %d users\n",
		res.FairnessJain, res.MaxMinRatio, tel.Fairness.N())
	printTopFlows(res.Flows)

	fmt.Println("bottleneck drops by reason:")
	for i := 0; i < telemetry.NumDropReasons; i++ {
		r := telemetry.DropReason(i)
		if n := tel.SchedDrops.Get(r); n > 0 {
			fmt.Printf("  %-22s %12d\n", r, n)
		}
	}
	fmt.Printf("  %-22s %12d\n", "total", tel.SchedDrops.Total())
	if d := tel.Demotions.Total(); d > 0 {
		fmt.Printf("demotions at routers: %d\n", d)
	}
	if tel.LinkDrops.Total() > 0 {
		fmt.Println("link fault losses by reason (separate from queue drops):")
		for i := 0; i < telemetry.NumDropReasons; i++ {
			r := telemetry.DropReason(i)
			if n := tel.LinkDrops.Get(r); n > 0 {
				fmt.Printf("  %-22s %12d\n", r, n)
			}
		}
	}
	fmt.Printf("host egress drops (silent loss before routers): %d\n", tel.HostEgressDrops)

	// The attack-onset health timeline. Transition lines are fully
	// deterministic (virtual-time detector over seeded traffic), so two
	// same-seed runs print byte-identical logs — metrics-smoke diffs
	// them.
	if tel.Health != nil {
		for _, tr := range tel.Health.Transitions() {
			fmt.Printf("health: %s\n", tr)
		}
		if n := tel.Health.Overflow(); n > 0 {
			fmt.Printf("health: %d further transitions dropped (log cap)\n", n)
		}
		fmt.Printf("health final state: %s\n", tel.Health.State())
	}
	fmt.Printf("queue delay p50=%.3fms p99=%.3fms  e2e p50=%.3fms p99=%.3fms\n",
		ms(tel.QueueDelay.Quantile(0.5)), ms(tel.QueueDelay.Quantile(0.99)),
		ms(tel.Delivery.Quantile(0.5)), ms(tel.Delivery.Quantile(0.99)))

	// Accounting invariant: reason-attributed counters cover every
	// bottleneck drop exactly.
	var invariantErr error
	if tel.SchedDrops.Total() != res.BottleneckDrops {
		invariantErr = fmt.Errorf("drop accounting mismatch: per-reason sum %d != bottleneck drops %d",
			tel.SchedDrops.Total(), res.BottleneckDrops)
	} else {
		fmt.Printf("drop accounting: per-reason sum matches bottleneck total (%d)\n", res.BottleneckDrops)
	}

	// Flight-recorder dump: always when -tracefile was given; otherwise
	// automatically when the accounting invariant failed or the
	// drop-storm detector fired mid-run.
	if tel.Spans != nil {
		if tel.DropStorm {
			fmt.Printf("drop storm: threshold crossed at t=%.3fs\n", tel.DropStormAt.SecondsF())
		}
		dumpTo := traceFile
		if dumpTo == "" && (invariantErr != nil || tel.DropStorm) {
			dumpTo = "flightrec.trace"
			fmt.Printf("flight recorder: auto-dumping to %s\n", dumpTo)
		}
		if dumpTo != "" {
			if err := writeTraceDump(dumpTo, tel.Spans); err != nil {
				return err
			}
			fmt.Printf("wrote %d spans (%d recorded, %d overwritten, last trace id %d) to %s\n",
				tel.Spans.Recorded()-tel.Spans.Overwritten(), tel.Spans.Recorded(),
				tel.Spans.Overwritten(), tel.Spans.LastID(), dumpTo)
		}
	}
	if invariantErr != nil {
		return invariantErr
	}

	if out != "" && tel.Metrics != nil {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(out, ".csv") {
			err = tel.Metrics.WriteCSV(f)
		} else {
			err = tel.Metrics.WriteJSON(f)
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d rows x %d series to %s\n", tel.Metrics.Len(), tel.Metrics.NumSeries(), out)
	}
	if promOut != "" && tel.Metrics != nil {
		f, err := os.Create(promOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tel.Metrics.WritePrometheus(f); err != nil {
			return err
		}
		fmt.Printf("wrote final exposition snapshot to %s\n", promOut)
	}
	if traceN > 0 {
		spans := tel.Spans.Snapshot()
		if len(spans) > traceN {
			spans = spans[len(spans)-traceN:]
		}
		fmt.Printf("last %d of %d spans:\n", len(spans), tel.Spans.Recorded())
		if err := trace.WriteText(os.Stdout, spans, tel.Spans.HopName); err != nil {
			return err
		}
	}
	return nil
}

// ms converts a sketch quantile in nanoseconds to milliseconds.
func ms(ns int64) float64 { return tvatime.Duration(ns).Seconds() * 1e3 }

// printTopFlows prints the bottleneck's heavy-hitter table, largest
// first. The samples arrive sorted from Run (bytes descending, key
// ascending), so two same-seed runs print byte-identical tables.
func printTopFlows(flows []flowstats.Sample) {
	if len(flows) == 0 {
		return
	}
	shown := flows
	if len(shown) > 10 {
		shown = shown[:10]
	}
	fmt.Printf("top %d of %d tracked senders at the bottleneck:\n", len(shown), len(flows))
	fmt.Printf("  %-20s %14s %10s %10s %10s %10s\n",
		"sender", "bytes", "±err", "pkts", "drops", "demoted")
	for _, s := range shown {
		name := s.Key.Src().String()
		if p := s.Key.Path(); p != 0 {
			// Request traffic is held accountable by path identifier,
			// not its (spoofable) source address.
			name = fmt.Sprintf("path:%d", p)
		}
		fmt.Printf("  %-20s %14d %10d %10d %10d %10d\n",
			name, s.Bytes, s.Err, s.Pkts, s.Drops, s.Demotions)
	}
}

// writeTraceDump writes the flight recorder's retained spans to path.
func writeTraceDump(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteDump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// topDrops formats the largest reason-attributed drop counters as one
// line, largest first (ties broken by reason order).
func topDrops(c *telemetry.DropCounters) string {
	type rc struct {
		r telemetry.DropReason
		n uint64
	}
	var rows []rc
	for i := 0; i < telemetry.NumDropReasons; i++ {
		r := telemetry.DropReason(i)
		if n := c.Get(r); n > 0 {
			rows = append(rows, rc{r, n})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].r < rows[j].r
	})
	if len(rows) == 0 {
		return "top-drops: none"
	}
	if len(rows) > 3 {
		rows = rows[:3]
	}
	s := "top-drops:"
	for _, row := range rows {
		s += fmt.Sprintf(" %s=%d", row.r, row.n)
	}
	return s
}

// faultSweep runs the recovery experiments: per scheme, either a
// bottleneck loss-rate sweep or a router restart-time sweep, all runs
// through exp.RunMany. It checks mode and the swept values before
// running anything; every error it returns is a bad flag value.
func faultSweep(mode string, schemes []exp.Scheme, dur tvatime.Duration, seed int64, workers int, lossRates, restartTimes string) error {
	var (
		xs            []float64
		err           error
		set           func(*exp.Config, float64)
		title, header string
		row           func(x float64, res *exp.Result) string
	)
	switch mode {
	case "loss":
		xs, err = parseList("loss-rates", lossRates, parseFloat,
			func(p float64) bool { return p >= 0 && p <= 1 }, "probabilities in [0, 1]")
		set = func(c *exp.Config, p float64) { c.LossRate = p }
		title = "bottleneck loss sweep"
		header = fmt.Sprintf("%10s %12s %14s %12s", "loss", "completion", "xfer-time(s)", "link-drops")
		row = func(p float64, res *exp.Result) string {
			return fmt.Sprintf("%10.3f %12.3f %14.3f %12d",
				p, res.CompletionFraction(), res.AvgTransferTime(), res.Telemetry.LinkDrops.Total())
		}
	case "restart":
		// A RestartAt of zero or less means no restart at all.
		xs, err = parseList("restart-times", restartTimes, parseFloat,
			func(sec float64) bool { return restartAt(sec) > 0 }, "times > 0 s")
		set = func(c *exp.Config, sec float64) { c.RestartAt = restartAt(sec) }
		title = "router restart sweep"
		header = fmt.Sprintf("%12s %12s %16s %12s", "restart(s)", "completion", "recover-in(s)", "flushed")
		row = func(sec float64, res *exp.Result) string {
			rec := "never"
			if d, ok := res.TimeToRecover(res.Cfg.RestartAt); ok {
				rec = fmt.Sprintf("%.3f", d.Seconds())
			}
			return fmt.Sprintf("%12.1f %12.3f %16s %12d",
				sec, res.CompletionFraction(), rec, res.Telemetry.LinkDrops.Get(telemetry.DropRouterRestart))
		}
	default:
		err = fmt.Errorf("unknown -fault mode %q (want loss or restart)", mode)
	}
	if err != nil {
		return err
	}

	cfgs := make([]exp.Config, 0, len(schemes)*len(xs))
	for _, scheme := range schemes {
		for _, x := range xs {
			cfg := exp.Config{Scheme: scheme, Duration: dur, Seed: seed}
			set(&cfg, x)
			cfgs = append(cfgs, cfg)
		}
	}
	results := exp.RunMany(cfgs, workers)

	fmt.Printf("# fault: %s (no attack, %.0fs, seed %d)\n", title, dur.Seconds(), seed)
	fmt.Printf("%-10s %s\n", "scheme", header)
	i := 0
	for _, scheme := range schemes {
		for _, x := range xs {
			fmt.Printf("%-10s %s\n", scheme, row(x, results[i]))
			i++
		}
		fmt.Println()
	}
	return nil
}

// restartAt converts a -restart-times entry to Config.RestartAt.
func restartAt(sec float64) tvatime.Duration {
	return tvatime.Duration(sec * float64(tvatime.Second))
}

// parseList parses the comma-separated value s of the named flag with
// parse, and refuses any element that does not parse or that valid
// rejects (want says what valid accepts).
func parseList[T any](flagName, s string, parse func(string) (T, error), valid func(T) bool, want string) ([]T, error) {
	var out []T
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		v, err := parse(p)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q", flagName, p)
		}
		if !valid(v) {
			return nil, fmt.Errorf("-%s %s: want %s", flagName, p, want)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func parseSchemes(s string) ([]exp.Scheme, error) {
	var out []exp.Scheme
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "internet":
			out = append(out, exp.SchemeInternet)
		case "tva":
			out = append(out, exp.SchemeTVA)
		case "siff":
			out = append(out, exp.SchemeSIFF)
		case "pushback":
			out = append(out, exp.SchemePushback)
		case "":
		default:
			return nil, fmt.Errorf("-schemes: unknown scheme %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-schemes %q: want at least one of internet, siff, pushback, tva", s)
	}
	return out, nil
}

// resultCols is the one shared per-run column schema: every sweep
// table (the figure sweeps and -fairness) draws its header and row
// cells from this list, so a new column lands in every table at once
// instead of drifting between hand-maintained Printf strings.
type resultCol struct {
	head string
	wid  int
	cell func(*exp.Result) string
}

var resultCols = []resultCol{
	{"completion", 12, func(r *exp.Result) string { return fmt.Sprintf("%.3f", r.CompletionFraction()) }},
	{"xfer-time(s)", 14, func(r *exp.Result) string { return fmt.Sprintf("%.3f", r.AvgTransferTime()) }},
	{"jain", 8, func(r *exp.Result) string { return fmt.Sprintf("%.4f", r.FairnessJain) }},
	{"max/min", 10, func(r *exp.Result) string { return fmt.Sprintf("%.2f", r.MaxMinRatio) }},
	{"drops", 12, func(r *exp.Result) string { return strconv.FormatUint(r.BottleneckDrops, 10) }},
	{"host-drops", 12, func(r *exp.Result) string { return strconv.FormatUint(r.Telemetry.HostEgressDrops, 10) }},
}

// printResultHeader prints the x-axis column header followed by the
// shared schema's headers.
func printResultHeader(xHead string) {
	fmt.Printf("%-10s %10s", "scheme", xHead)
	for _, c := range resultCols {
		fmt.Printf(" %*s", c.wid, c.head)
	}
	fmt.Println()
}

// printResultRow prints one run under printResultHeader's layout.
func printResultRow(scheme exp.Scheme, x int, res *exp.Result) {
	fmt.Printf("%-10s %10d", scheme, x)
	for _, c := range resultCols {
		fmt.Printf(" %*s", c.wid, c.cell(res))
	}
	fmt.Println()
}

func sweepFigure(title string, attack exp.Attack, schemes []exp.Scheme, counts []int, dur tvatime.Duration, seed int64, workers int) {
	cfgs := make([]exp.Config, 0, len(schemes)*len(counts))
	for _, scheme := range schemes {
		for _, k := range counts {
			cfgs = append(cfgs, exp.Config{
				Scheme:       scheme,
				Attack:       attack,
				NumAttackers: k,
				Duration:     dur,
				Seed:         seed,
			})
		}
	}
	results := exp.RunMany(cfgs, workers)

	fmt.Printf("# %s\n", title)
	printResultHeader("attackers")
	i := 0
	for _, scheme := range schemes {
		for _, k := range counts {
			printResultRow(scheme, k, results[i])
			i++
		}
		fmt.Println()
	}

	// One-line drop attribution across the whole sweep, so the default
	// figure output already says *why* packets died at the bottleneck.
	var agg telemetry.DropCounters
	for _, res := range results {
		agg.Merge(&res.Telemetry.SchedDrops)
	}
	fmt.Println(topDrops(&agg))
}

// fairnessSweep varies the legitimate-sender population under a fixed
// legacy flood (the largest -attackers count) and reports the shared
// schema's columns per point — the jain/max-min pair is the payload
// (fairness vs. sender count, EXPERIMENTS.md).
func fairnessSweep(schemes []exp.Scheme, userCounts, attackerCounts []int, dur tvatime.Duration, seed int64, workers int) {
	attackers := 0
	for _, k := range attackerCounts {
		if k > attackers {
			attackers = k
		}
	}
	cfgs := make([]exp.Config, 0, len(schemes)*len(userCounts))
	for _, scheme := range schemes {
		for _, n := range userCounts {
			cfgs = append(cfgs, exp.Config{
				Scheme:       scheme,
				Attack:       exp.AttackLegacyFlood,
				NumUsers:     n,
				NumAttackers: attackers,
				Duration:     dur,
				Seed:         seed,
			})
		}
	}
	results := exp.RunMany(cfgs, workers)

	fmt.Printf("# fairness vs. sender count: legacy flood, %d attackers, %.0fs, seed %d\n",
		attackers, dur.Seconds(), seed)
	printResultHeader("users")
	i := 0
	for _, scheme := range schemes {
		for _, n := range userCounts {
			printResultRow(scheme, n, results[i])
			i++
		}
		fmt.Println()
	}
}

// figure11 prints per-2s-bucket maxima of transfer time for the
// high-intensity (all at once) and low-intensity (10 at a time)
// imprecise-authorization attacks, for TVA and SIFF (the schemes in
// the paper's Fig. 11).
func figure11(schemes []exp.Scheme, dur tvatime.Duration, seed int64, workers int) {
	fmt.Println("# Figure 11: imprecise authorization (100 attackers granted 32KB/10s once; attack at t=10s)")
	groupings := []int{1, 10}
	var cfgs []exp.Config
	var plotted []exp.Scheme
	for _, scheme := range schemes {
		if scheme != exp.SchemeTVA && scheme != exp.SchemeSIFF {
			continue
		}
		plotted = append(plotted, scheme)
		for _, groups := range groupings {
			cfgs = append(cfgs, exp.Config{
				Scheme:       scheme,
				Attack:       exp.AttackImpreciseAuth,
				NumAttackers: 100,
				AttackGroups: groups,
				AttackStart:  10 * tvatime.Second,
				Duration:     dur,
				Seed:         seed,
			})
		}
	}
	results := exp.RunMany(cfgs, workers)
	i := 0
	for _, scheme := range plotted {
		for _, groups := range groupings {
			label := "all-at-once"
			if groups > 1 {
				label = "10-at-a-time"
			}
			res := results[i]
			i++
			fmt.Printf("%-6s %-13s completion=%.3f avg=%.3fs\n",
				scheme, label, res.CompletionFraction(), res.AvgTransferTime())
			starts, durs := res.Series()
			fmt.Printf("  %8s %12s\n", "t(s)", "max-xfer(s)")
			for lo := 0.0; lo < dur.Seconds(); lo += 2 {
				maxDur := 0.0
				for i, st := range starts {
					if st >= lo && st < lo+2 && durs[i] > maxDur {
						maxDur = durs[i]
					}
				}
				fmt.Printf("  %8.0f %12.2f\n", lo, maxDur)
			}
			fmt.Println()
		}
	}
}
