// Command tvabench regenerates the paper's implementation
// measurements (§6) against this repository's userspace router:
//
//	tvabench -table 1   # per-packet-type processing time  (Table 1)
//	tvabench -fig 12    # peak output rate vs input rate    (Fig. 12)
//	tvabench -all
//
// Absolute numbers differ from the paper's 3.2 GHz Xeon kernel module;
// the orderings (regular-with-entry cheapest, renewal-without-entry
// most expensive, throughput plateaus per type) are the reproduced
// result. Every measurement runs the paper's AES+SHA1 construction.
//
// With -guard-batch, tvabench instead measures the batched data path
// at burst widths 1 and 32 and exits 1 unless width 32 forwards at
// least twice as fast.
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"tva/internal/flowstats"
	"tva/internal/overlay"
	"tva/internal/tvatime"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate (1)")
	fig := flag.Int("fig", 0, "figure to regenerate (12)")
	all := flag.Bool("all", false, "regenerate Table 1 and Fig. 12")
	dur := flag.Duration("dur", 300*time.Millisecond, "measurement window per Fig. 12 point (> 0)")
	guardBatchFlag := flag.Bool("guard-batch", false, "measure the batched data path and require >=2x throughput at batch=32 vs batch=1; exit 1 otherwise")
	flag.Parse()

	// Every flag value is checked before anything is measured: an
	// unknown table or figure would otherwise print nothing and exit 0.
	if *table != 0 && *table != 1 {
		badFlag(fmt.Errorf("-table %d: only Table 1 is measured here", *table))
	}
	if *fig != 0 && *fig != 12 {
		badFlag(fmt.Errorf("-fig %d: only Fig. 12 is measured here (figs 8-11: tvasim)", *fig))
	}
	if *dur <= 0 {
		badFlag(fmt.Errorf("-dur %v: want a positive measurement window", *dur))
	}

	if *guardBatchFlag {
		if err := guardBatch(*dur); err != nil {
			fmt.Fprintln(os.Stderr, "tvabench -guard-batch:", err)
			os.Exit(1)
		}
		return
	}

	if *all || *table == 1 {
		table1()
	}
	if *all || *fig == 12 {
		fig12(*dur)
		fig12Batch(*dur)
	}
	if !*all && *table == 0 && *fig == 0 {
		flag.Usage()
		os.Exit(2)
	}
}

// badFlag reports a flag value tvabench refuses and exits 2, as the
// flag package does for one it cannot parse.
func badFlag(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// table1 measures the per-packet processing cost of each packet type
// through the full forwarding path (Table 1's rows), with a per-sender
// flowstats collector attached to the router as the overlay attaches
// one. Paper values on a 3.2 GHz Xeon, for comparison: request 460 ns,
// regular w/ entry 33 ns, regular w/o entry 1486 ns, renewal w/ entry
// 439 ns, renewal w/o entry 1821 ns.
func table1() {
	fmt.Println("# Table 1: processing overhead of different types of packets")
	fmt.Printf("%-22s %14s %12s\n", "packet type", "ns/packet", "allocs/pkt")
	for _, kind := range overlay.Kinds {
		w := overlay.NewWorkload(kind)
		w.Router.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
		res := testing.Benchmark(func(b *testing.B) {
			now := tvatime.WallClock{}.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ForwardOne(now)
			}
		})
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		fmt.Printf("%-22s %14.1f %12d\n", kind, ns, res.AllocsPerOp())
	}
	fmt.Println()
}

// fig12 measures output rate versus offered input rate per packet
// type (Fig. 12's series).
func fig12(dur time.Duration) {
	fmt.Printf("# Figure 12: peak output rate vs input rate (%v per point)\n", dur)
	rates := []int{100_000, 250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000}
	fmt.Printf("%-22s", "packet type")
	for _, r := range rates {
		fmt.Printf(" %9s", fmt.Sprintf("%dk", r/1000))
	}
	fmt.Println(" (input pps -> output kpps)")
	for _, kind := range overlay.Kinds {
		w := overlay.NewWorkload(kind)
		fmt.Printf("%-22s", kind)
		for _, rate := range rates {
			out := overlay.MeasureForwarding(w, rate, dur)
			fmt.Printf(" %9.0f", out/1000)
		}
		fmt.Println()
	}
	fmt.Println()
}

// bestRate measures the batched data path at burst width bs, best of
// trials runs: a stalled window (a dropped datagram under load) voids
// a run, never the series.
func bestRate(w *overlay.Workload, bs int, dur time.Duration, trials int) (float64, error) {
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

// fig12Batch prints the batched data path series: the sustained
// loopback forwarding rate of a full overlay router per burst width
// (batch 1 is the same data path at its narrowest width).
func fig12Batch(dur time.Duration) {
	fmt.Printf("# Figure 12 (batched): overlay forwarding rate vs RouterConfig.Batch (%v per point)\n", dur)
	kind := overlay.KindRegularWithEntry
	w := overlay.NewWorkload(kind)
	fmt.Printf("%-22s %8s %12s\n", "packet type", "batch", "output kpps")
	for _, bs := range overlay.BatchSizes {
		pps, err := bestRate(w, bs, dur, 2)
		if err != nil {
			fmt.Printf("measurement failed: %v\n\n", err)
			return
		}
		fmt.Printf("%-22s %8d %12.0f\n", kind, bs, pps/1000)
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
func guardBatch(dur time.Duration) error {
	w := overlay.NewWorkload(overlay.KindRegularWithEntry)
	single, err := bestRate(w, 1, dur, 3)
	if err != nil {
		return err
	}
	batched, err := bestRate(w, 32, dur, 3)
	if err != nil {
		return err
	}
	ratio := batched / single
	fmt.Printf("# batch guard: batch=1 %.0f kpps, batch=32 %.0f kpps, ratio %.2fx (floor %.1fx)\n",
		single/1000, batched/1000, ratio, guardBatchRatio)
	if ratio < guardBatchRatio {
		return fmt.Errorf("batch=32 forwarding only %.2fx batch=1 (need >=%.1fx)", ratio, guardBatchRatio)
	}
	fmt.Println("batched data path within throughput floor")
	return nil
}
