package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// compare applies the bounds of BENCHMARK.json to two sets of runs,
// usually the parent commit's and a change's, or two sets of the same
// commit to show the benchmark agrees with itself.

// verdict is one row's outcome.
type verdict string

const (
	vSame       verdict = "same"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved"
)

// judge compares one metric on one workload: a is the base set, b the
// set under test. b is worse when its median is worse than a's by
// more than bound (a share of a's median). When either set's own
// spread (interquartile range over median) is wider than the bound,
// a verdict of "same" cannot be told from noise and the row is
// unresolved, unless every run of b reads at least as well as every
// run of a.
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	ma, mb := median(a), median(b)
	worse := ma - mb // how much worse b is, for "higher is better"
	if !higherBetter {
		worse = mb - ma
	}
	if worse > bound*abs(ma) {
		return vWorse
	}
	if spread(a) > bound || spread(b) > bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[0] >= sa[len(sa)-1]
		if !higherBetter {
			allBetter = sb[len(sb)-1] <= sa[0]
		}
		if !allBetter {
			return vUnresolved
		}
	}
	return vSame
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// loadRuns reads a result set: a directory of result files or one
// result file. Traced passes are skipped; end-to-end metrics are
// measured with tracing off.
func loadRuns(path string) ([]resultFile, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result_*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []resultFile
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced result file", path)
	}
	return runs, nil
}

// values collects one metric's run medians for one workload.
func values(runs []resultFile, workload, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if r.Workload == workload {
			if s, ok := r.EndToEnd[metric]; ok && s.N > 0 {
				v = append(v, s.Median)
			}
		}
	}
	return v
}

func compareMain(args []string) int {
	specPath := "BENCHMARK.json"
	if len(args) == 4 && args[0] == "-spec" {
		specPath, args = args[1], args[2:]
	}
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] <base: result dir or file> <test: result dir or file>")
		return 2
	}
	spec, err := loadSpec(specPath)
	var a, b []resultFile
	if err == nil {
		a, err = loadRuns(args[0])
	}
	if err == nil {
		b, err = loadRuns(args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	return printComparison(spec, a, b)
}

func printComparison(spec *specFile, a, b []resultFile) int {
	code := 0
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "base", "test", "spread", "bound", "runs", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, m.Better == "higher", m.Bound)
			if v == vWorse {
				code = 1
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %8.4f %8.4f %3d/%-3d %s\n", w.Name, m.Name,
				median(va), median(vb), max(spread(va), spread(vb)), m.Bound, len(va), len(vb), v)
		}
	}
	return code
}
