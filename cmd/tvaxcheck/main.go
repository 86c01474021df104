// tvaxcheck cross-validates the two data planes: it runs scenario
// specs on both the discrete-event simulator and an in-process
// loopback overlay deployment, compares the shared metric series,
// drop attribution, and queue-wait distributions, and exits non-zero
// when any gated check exceeds its declared tolerance.
//
// Usage:
//
//	tvaxcheck                      # run the canonical scenarios (baseline, flood)
//	tvaxcheck baseline             # run one builtin by name
//	tvaxcheck -scenario spec.json  # run a JSON scenario spec
//	tvaxcheck -o report.json       # also write the JSON divergence report
//	tvaxcheck -list                # list builtin scenarios
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tva/internal/xcheck"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is tvaxcheck with its arguments and output streams passed in; it
// returns the exit status: 0 when every gated check passes, 1 when one
// fails or a scenario cannot run, 2 for a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tvaxcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list builtin scenarios and exit")
		specPath = fs.String("scenario", "", "path to a JSON scenario spec (may repeat via args)")
		out      = fs.String("o", "", "write the JSON divergence report to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tvaxcheck:", err)
		return 1
	}

	if *list {
		for _, s := range xcheck.Builtins {
			fmt.Fprintf(stdout, "%-12s %s\n", s.Name, s.Description)
		}
		return 0
	}

	var scenarios []xcheck.Scenario
	if *specPath != "" {
		sc, err := xcheck.LoadScenario(*specPath)
		if err != nil {
			return fail(err)
		}
		scenarios = append(scenarios, sc)
	}
	for _, name := range fs.Args() {
		sc, ok := xcheck.Builtin(name)
		if !ok {
			return fail(fmt.Errorf("unknown scenario %q (try -list)", name))
		}
		scenarios = append(scenarios, sc)
	}
	if len(scenarios) == 0 {
		scenarios = xcheck.Builtins
	}

	var comparisons []*xcheck.Comparison
	for _, sc := range scenarios {
		fmt.Fprintf(stderr, "xcheck: running %s on both planes...\n", sc.Name)
		c, err := xcheck.RunScenario(sc)
		if err != nil {
			return fail(err)
		}
		comparisons = append(comparisons, c)
	}
	report := xcheck.NewReport(comparisons)

	if err := report.WriteText(stdout); err != nil {
		return fail(err)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if !report.Pass {
		return 1
	}
	return 0
}
