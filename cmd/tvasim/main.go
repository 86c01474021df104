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
//	tvasim -fig 8 -schemes tva -trace 20
//
// With -tracefile FILE, the instrumented run also attaches the span
// flight recorder (internal/trace) and writes the binary span dump to
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
// Both are bit-identical across same-seed runs:
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
	metricsIntervalMs := flag.Float64("metrics-interval", 100, "metrics/health tick interval in virtual milliseconds (with -metrics)")
	traceN := flag.Int("trace", 0, "with an instrumented run, print the last N per-packet trace events")
	traceFile := flag.String("tracefile", "", "run one instrumented simulation with the span flight recorder on and write the binary dump here (query with tvatrace)")
	traceSpans := flag.Int("trace-spans", 0, "flight-recorder capacity in spans (0 = default with -tracefile, off otherwise)")
	stormPkts := flag.Int("storm-pkts", 1000, "drop-storm threshold (bottleneck drops per 100ms window) that triggers an automatic flight-recorder dump; 0 disables")
	faultMode := flag.String("fault", "", "recovery experiment: 'loss' (bottleneck loss sweep) or 'restart' (router restart sweep)")
	fairness := flag.Bool("fairness", false, "sweep legitimate-sender counts (-users) instead of attacker counts and report per-run fairness")
	usersFlag := flag.String("users", "10,20,50,100", "legitimate-sender counts for -fairness")
	lossRatesFlag := flag.String("loss-rates", "0,0.05,0.1,0.2", "loss probabilities for -fault loss")
	restartTimesFlag := flag.String("restart-times", "10,20,30", "restart times in seconds for -fault restart")
	flag.Parse()

	schemes, err := parseSchemes(*schemesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	counts, err := parseInts(*attackersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dur := tvatime.FromSeconds(*durationSec).Sub(0)

	if *faultMode != "" {
		if err := faultSweep(*faultMode, schemes, dur, *seed, *lossRatesFlag, *restartTimesFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	if *fairness {
		userCounts, err := parseInts(*usersFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
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
			fmt.Fprintln(os.Stderr, "-metrics/-prom/-trace/-tracefile need a single -fig (8, 9, 10 or 11)")
			os.Exit(2)
		}
		if err := instrumentedRun(figs[0], schemes, counts, dur, *seed,
			*metricsOut, *promOut, *metricsIntervalMs, *traceN,
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
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", f)
			os.Exit(2)
		}
	}
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
// (and optionally the tracer) on, writes the time series, and prints
// the drop-attribution summary plus the health transition log. It
// verifies the accounting invariant: the per-reason drop counters
// must sum to the bottleneck's drop total.
func instrumentedRun(fig string, schemes []exp.Scheme, counts []int, dur tvatime.Duration, seed int64, out, promOut string, intervalMs float64, traceN int, traceFile string, traceSpans, stormPkts int) error {
	attack, err := figAttack(fig)
	if err != nil {
		return err
	}
	scheme := exp.SchemeTVA
	if len(schemes) > 0 {
		scheme = schemes[0]
	}
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
		MetricsInterval: tvatime.Duration(intervalMs * float64(tvatime.Millisecond)),
		TraceEvents:     traceN,
	}
	if traceFile != "" && traceSpans <= 0 {
		traceSpans = trace.DefaultCapacity
	}
	if traceSpans > 0 {
		cfg.SpanCapacity = traceSpans
		cfg.DropStormPkts = stormPkts
	}
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
		tel.QueueDelay.Quantile(0.5).Seconds()*1e3, tel.QueueDelay.Quantile(0.99).Seconds()*1e3,
		tel.Delivery.Quantile(0.5).Seconds()*1e3, tel.Delivery.Quantile(0.99).Seconds()*1e3)

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
	if traceN > 0 && tel.Trace != nil {
		fmt.Printf("last %d of %d trace events:\n", tel.Trace.Len(), tel.Trace.Total())
		tel.Trace.WriteText(os.Stdout)
	}
	return nil
}

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
// bottleneck loss-rate sweep or a router restart-time sweep.
func faultSweep(mode string, schemes []exp.Scheme, dur tvatime.Duration, seed int64, lossRates, restartTimes string) error {
	switch mode {
	case "loss":
		rates, err := parseFloats(lossRates)
		if err != nil {
			return err
		}
		fmt.Printf("# fault: bottleneck loss sweep (no attack, %.0fs, seed %d)\n", dur.Seconds(), seed)
		fmt.Printf("%-10s %10s %12s %14s %12s\n",
			"scheme", "loss", "completion", "xfer-time(s)", "link-drops")
		for _, scheme := range schemes {
			base := exp.Config{Scheme: scheme, Duration: dur, Seed: seed}
			for _, p := range exp.LossSweep(base, rates) {
				fmt.Printf("%-10s %10.3f %12.3f %14.3f %12d\n",
					scheme, p.LossRate, p.CompletionFraction, p.AvgTransferTime, p.LinkDrops)
			}
			fmt.Println()
		}
	case "restart":
		times, err := parseFloats(restartTimes)
		if err != nil {
			return err
		}
		fmt.Printf("# fault: router restart sweep (no attack, %.0fs, seed %d)\n", dur.Seconds(), seed)
		fmt.Printf("%-10s %12s %12s %16s %12s\n",
			"scheme", "restart(s)", "completion", "recover-in(s)", "flushed")
		for _, scheme := range schemes {
			base := exp.Config{Scheme: scheme, Duration: dur, Seed: seed}
			for _, p := range exp.RestartSweep(base, times) {
				rec := "never"
				if p.TimeToRecoverSec >= 0 {
					rec = fmt.Sprintf("%.3f", p.TimeToRecoverSec)
				}
				fmt.Printf("%-10s %12.1f %12.3f %16s %12d\n",
					scheme, p.RestartAtSec, p.CompletionFraction, rec, p.FlushedPkts)
			}
			fmt.Println()
		}
	default:
		return fmt.Errorf("unknown -fault mode %q (want loss or restart)", mode)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, f)
	}
	return out, nil
}

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
			return nil, fmt.Errorf("unknown scheme %q", name)
		}
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad attacker count %q", p)
		}
		out = append(out, n)
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
