// Command tvabench regenerates the paper's implementation
// measurements (§6) against this repository's userspace router:
//
//	tvabench -table 1   # per-packet-type processing time  (Table 1)
//	tvabench -fig 12    # peak output rate vs input rate    (Fig. 12)
//	tvabench -all
//	tvabench -all -label abc123   # also write BENCH_abc123.json
//
// Absolute numbers differ from the paper's 3.2 GHz Xeon kernel module;
// the orderings (regular-with-entry cheapest, renewal-without-entry
// most expensive, throughput plateaus per type) are the reproduced
// result. Use -suite crypto for the paper's AES+SHA1 construction.
//
// With -label (or -json), a machine-readable BENCH_<label>.json
// snapshot is written containing Table 1 ns/op and allocs/op, Fig. 12
// peak kpps per packet type, and scenario completion fractions from a
// parallel simulation sweep — the regression record the Makefile's
// bench target commits per git revision.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tva/internal/capability"
	"tva/internal/exp"
	"tva/internal/overlay"
	"tva/internal/tvatime"
)

// benchSnapshot is the BENCH_<label>.json schema.
type benchSnapshot struct {
	Label      string          `json:"label"`
	Suite      string          `json:"suite"`
	GoVersion  string          `json:"go_version"`
	Table1     []table1Row     `json:"table1"`
	Fig12      []fig12Row      `json:"fig12"`
	Fig12Batch []fig12BatchRow `json:"fig12_batch,omitempty"`
	Scenarios  []scenarioRow   `json:"scenarios"`
}

type table1Row struct {
	Kind        string  `json:"kind"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type fig12Row struct {
	Kind       string  `json:"kind"`
	InputPPS   int     `json:"input_pps"`
	OutputKpps float64 `json:"output_kpps"`
}

// fig12BatchRow is one point of the batched data path series: the
// sustained forwarding rate of a full overlay router at a given
// RouterConfig.Batch, driven over loopback UDP (batch 1 is the same
// data path at its narrowest width).
type fig12BatchRow struct {
	Kind       string  `json:"kind"`
	Batch      int     `json:"batch"`
	OutputKpps float64 `json:"output_kpps"`
}

type scenarioRow struct {
	Scheme     string  `json:"scheme"`
	Attack     string  `json:"attack"`
	Attackers  int     `json:"attackers"`
	Completion float64 `json:"completion_fraction"`
	AvgXferSec float64 `json:"avg_transfer_sec"`
}

func main() {
	table := flag.Int("table", 0, "table to regenerate (1)")
	fig := flag.Int("fig", 0, "figure to regenerate (12)")
	all := flag.Bool("all", false, "regenerate Table 1 and Fig. 12")
	suiteName := flag.String("suite", "crypto", "hash suite: crypto (AES+SHA1, as the paper) or fast")
	dur := flag.Duration("dur", 300*time.Millisecond, "measurement window per Fig. 12 point")
	label := flag.String("label", "", "write a BENCH_<label>.json snapshot (implies -all)")
	jsonPath := flag.String("json", "", "snapshot output path (default BENCH_<label>.json)")
	workers := flag.Int("workers", 0, "parallel workers for the snapshot's scenario sweep (0 = GOMAXPROCS)")
	simSec := flag.Float64("sim-duration", 12, "simulated seconds per snapshot scenario run")
	guard := flag.String("guard", "", "compare current Table 1 allocs/op against this BENCH_*.json; exit 1 on regression")
	guardBatchFlag := flag.Bool("guard-batch", false, "measure the batched data path and require >=2x throughput at batch=32 vs batch=1; exit 1 otherwise")
	flag.Parse()

	var suite capability.Suite
	switch *suiteName {
	case "crypto":
		suite = capability.Crypto
	case "fast":
		suite = capability.Fast
	default:
		fmt.Fprintf(os.Stderr, "unknown suite %q\n", *suiteName)
		os.Exit(2)
	}

	if *guard != "" {
		if err := guardAllocs(suite, *guard); err != nil {
			fmt.Fprintln(os.Stderr, "tvabench -guard:", err)
			os.Exit(1)
		}
		return
	}

	if *guardBatchFlag {
		if err := guardBatch(suite, *dur); err != nil {
			fmt.Fprintln(os.Stderr, "tvabench -guard-batch:", err)
			os.Exit(1)
		}
		return
	}

	if *label != "" || *jsonPath != "" {
		if err := writeSnapshot(suite, *label, *jsonPath, *dur, *workers, *simSec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *all || *table == 1 {
		table1(suite)
	}
	if *all || *fig == 12 {
		fig12(suite, *dur)
		fig12Batch(suite, *dur)
	}
	if !*all && *table == 0 && *fig == 0 {
		flag.Usage()
		os.Exit(2)
	}
}

// measureTable1 benchmarks every packet kind through the forwarding
// path, reporting ns/op and allocation counts.
func measureTable1(suite capability.Suite) []table1Row {
	rows := make([]table1Row, 0, len(overlay.Kinds))
	for _, kind := range overlay.Kinds {
		w := overlay.NewWorkload(kind, suite)
		// Measure with the streaming-metrics harness attached, exactly
		// like bench_test.go: the alloc guard then proves the Table 1
		// rows stay at 0 allocs/op with observability enabled.
		m := overlay.NewBenchMetrics(w)
		res := testing.Benchmark(func(b *testing.B) {
			now := tvatime.WallClock{}.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ForwardOneObserved(now, m)
				if i%overlay.BenchTickEvery == 0 {
					m.Tick()
				}
			}
		})
		rows = append(rows, table1Row{
			Kind:        kind.String(),
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return rows
}

// table1 measures the per-packet processing cost of each packet type
// through the full forwarding path (Table 1's rows). Paper values on
// a 3.2 GHz Xeon, for comparison: request 460 ns, regular w/ entry
// 33 ns, regular w/o entry 1486 ns, renewal w/ entry 439 ns, renewal
// w/o entry 1821 ns.
func table1(suite capability.Suite) {
	fmt.Printf("# Table 1: processing overhead of different types of packets (suite=%s)\n", suite.Name)
	fmt.Printf("%-22s %14s %12s\n", "packet type", "ns/packet", "allocs/pkt")
	for _, row := range measureTable1(suite) {
		fmt.Printf("%-22s %14.1f %12d\n", row.Kind, row.NsPerOp, row.AllocsPerOp)
	}
	fmt.Println()
}

// fig12 measures output rate versus offered input rate per packet
// type (Fig. 12's series).
func fig12(suite capability.Suite, dur time.Duration) {
	fmt.Printf("# Figure 12: peak output rate vs input rate (suite=%s, %v per point)\n", suite.Name, dur)
	rates := []int{100_000, 250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000}
	fmt.Printf("%-22s", "packet type")
	for _, r := range rates {
		fmt.Printf(" %9s", fmt.Sprintf("%dk", r/1000))
	}
	fmt.Println(" (input pps -> output kpps)")
	for _, kind := range overlay.Kinds {
		w := overlay.NewWorkload(kind, suite)
		fmt.Printf("%-22s", kind)
		for _, rate := range rates {
			out := overlay.MeasureForwarding(w, rate, dur)
			fmt.Printf(" %9.0f", out/1000)
		}
		fmt.Println()
	}
	fmt.Println()
}

// measureFig12Batch measures the batched data path series: the
// sustained loopback forwarding rate of a full overlay router per
// batch size, best of trials runs each (a stalled window — a dropped
// datagram under load — voids a run, never the series).
func measureFig12Batch(suite capability.Suite, dur time.Duration, trials int) ([]fig12BatchRow, error) {
	kind := overlay.KindRegularWithEntry
	w := overlay.NewWorkload(kind, suite)
	rows := make([]fig12BatchRow, 0, len(overlay.BatchSizes))
	for _, bs := range overlay.BatchSizes {
		best := 0.0
		var lastErr error
		for t := 0; t < trials; t++ {
			pps, err := overlay.MeasureForwardingBatch(w, bs, dur)
			if err != nil {
				lastErr = err
				continue
			}
			if pps > best {
				best = pps
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("batch=%d: every trial stalled: %v", bs, lastErr)
		}
		rows = append(rows, fig12BatchRow{Kind: kind.String(), Batch: bs, OutputKpps: best / 1000})
	}
	return rows, nil
}

// fig12Batch prints the batched data path series.
func fig12Batch(suite capability.Suite, dur time.Duration) {
	fmt.Printf("# Figure 12 (batched): overlay forwarding rate vs RouterConfig.Batch (suite=%s, %v per point)\n", suite.Name, dur)
	rows, err := measureFig12Batch(suite, dur, 2)
	if err != nil {
		fmt.Printf("measurement failed: %v\n\n", err)
		return
	}
	fmt.Printf("%-22s %8s %12s\n", "packet type", "batch", "output kpps")
	for _, row := range rows {
		fmt.Printf("%-22s %8d %12.0f\n", row.Kind, row.Batch, row.OutputKpps)
	}
	fmt.Println()
}

// guardBatchRatio is the floor guardBatch enforces: the data path must
// forward at least this many times faster at batch=32 than at batch=1
// (one datagram per syscall, scheduler crossing and wakeup — what the
// per-datagram loops the burst path replaced used to cost).
const guardBatchRatio = 2.0

// guardBatch measures the production data path at burst widths 1 and
// 32 and fails unless width still pays for itself: >=2x sustained
// throughput. This is the regression record for the batched
// forwarding work — syscall amortization (recvmmsg/sendmmsg), one
// scheduler crossing per burst, and per-burst wakeups — measured
// end to end over real sockets, best of three runs per size.
func guardBatch(suite capability.Suite, dur time.Duration) error {
	w := overlay.NewWorkload(overlay.KindRegularWithEntry, suite)
	const trials = 3
	measure := func(bs int) (float64, error) {
		best := 0.0
		var lastErr error
		for t := 0; t < trials; t++ {
			pps, err := overlay.MeasureForwardingBatch(w, bs, dur)
			if err != nil {
				lastErr = err
				continue
			}
			if pps > best {
				best = pps
			}
		}
		if best == 0 {
			return 0, fmt.Errorf("batch=%d: every trial stalled: %v", bs, lastErr)
		}
		return best, nil
	}
	single, err := measure(1)
	if err != nil {
		return err
	}
	batched, err := measure(32)
	if err != nil {
		return err
	}
	ratio := batched / single
	fmt.Printf("# batch guard (suite=%s): batch=1 %.0f kpps, batch=32 %.0f kpps, ratio %.2fx (floor %.1fx)\n",
		suite.Name, single/1000, batched/1000, ratio, guardBatchRatio)
	if ratio < guardBatchRatio {
		return fmt.Errorf("batch=32 forwarding only %.2fx batch=1 (need >=%.1fx)", ratio, guardBatchRatio)
	}
	fmt.Println("batched data path within throughput floor")
	return nil
}

// guardAllocs compares current Table 1 allocation counts against a
// committed snapshot and fails on any regression. Telemetry rode into
// the forwarding path with the promise of zero extra allocations;
// this is the check that keeps the promise honest in CI.
func guardAllocs(suite capability.Suite, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	baseline := make(map[string]int64, len(base.Table1))
	for _, row := range base.Table1 {
		baseline[row.Kind] = row.AllocsPerOp
	}

	fmt.Printf("# alloc guard vs %s (suite=%s)\n", path, suite.Name)
	fmt.Printf("%-22s %10s %10s\n", "packet type", "baseline", "current")
	failed := false
	// Measure exactly the way the snapshot was measured (steady-state
	// testing.Benchmark loops), so warm-up allocations such as flow
	// cache growth do not read as regressions.
	for _, row := range measureTable1(suite) {
		got := row.AllocsPerOp
		want, ok := baseline[row.Kind]
		mark := "ok"
		if ok && got > want {
			mark = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-22s %10d %10d  %s\n", row.Kind, want, got, mark)
	}
	if failed {
		return fmt.Errorf("allocs/op regressed above the %s baseline", path)
	}
	fmt.Println("allocs/op within baseline")
	return nil
}

// snapshotSaturatingPPS is the offered load for the snapshot's Fig. 12
// point: far beyond any kind's service rate, so the measured output is
// the peak forwarding rate.
const snapshotSaturatingPPS = 8_000_000

// writeSnapshot measures everything and writes BENCH_<label>.json.
func writeSnapshot(suite capability.Suite, label, path string, dur time.Duration, workers int, simSec float64) error {
	if label == "" {
		label = "local"
	}
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", label)
	}
	snap := benchSnapshot{
		Label:     label,
		Suite:     suite.Name,
		GoVersion: runtime.Version(),
	}

	fmt.Fprintf(os.Stderr, "tvabench: Table 1 (suite=%s)...\n", suite.Name)
	snap.Table1 = measureTable1(suite)

	fmt.Fprintln(os.Stderr, "tvabench: Fig. 12 peak rates...")
	for _, kind := range overlay.Kinds {
		w := overlay.NewWorkload(kind, suite)
		out := overlay.MeasureForwarding(w, snapshotSaturatingPPS, dur)
		snap.Fig12 = append(snap.Fig12, fig12Row{
			Kind:       kind.String(),
			InputPPS:   snapshotSaturatingPPS,
			OutputKpps: out / 1000,
		})
	}

	fmt.Fprintln(os.Stderr, "tvabench: Fig. 12 batched data path...")
	batchRows, err := measureFig12Batch(suite, dur, 2)
	if err != nil {
		return fmt.Errorf("fig12_batch: %w", err)
	}
	snap.Fig12Batch = batchRows

	fmt.Fprintln(os.Stderr, "tvabench: scenario sweep...")
	simDur := tvatime.FromSeconds(simSec).Sub(0)
	spec := exp.SweepSpec{
		Base: exp.Config{Duration: simDur, Seed: 1},
		Schemes: []exp.Scheme{
			exp.SchemeInternet, exp.SchemeSIFF, exp.SchemePushback, exp.SchemeTVA,
		},
		Attacks:   []exp.Attack{exp.AttackLegacyFlood},
		Attackers: []int{100},
	}
	cfgs := spec.Expand()
	for _, res := range exp.RunMany(cfgs, workers) {
		snap.Scenarios = append(snap.Scenarios, scenarioRow{
			Scheme:     res.Cfg.Scheme.String(),
			Attack:     res.Cfg.Attack.String(),
			Attackers:  res.Cfg.NumAttackers,
			Completion: res.CompletionFraction(),
			AvgXferSec: res.AvgTransferTime(),
		})
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
