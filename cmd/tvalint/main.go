// Command tvalint runs the repository's custom analyzers (hotpath,
// determinism, dropreason, poolowner, lockorder, goleak, metricname —
// see internal/lint) over the module and exits non-zero if any
// invariant is violated. `tvalint -list` prints the suite with
// one-line descriptions.
//
// Usage:
//
//	tvalint [-json] [-checks hotpath,determinism,...] [packages]
//
// Packages default to ./... relative to the current directory, which
// must be inside the module. Findings print as file:line:col: [check]
// message; with -json they stream as one JSON object per finding with
// file, line, col, check, and message fields, so CI and future tooling
// can consume them without scraping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"tva/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *checks != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*checks, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	findings := lint.Run(prog, nil, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, f := range findings {
			rec := struct {
				File    string `json:"file"`
				Line    int    `json:"line"`
				Col     int    `json:"col"`
				Check   string `json:"check"`
				Message string `json:"message"`
			}{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tvalint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
