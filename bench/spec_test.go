package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The contract BENCHMARK.json is checked against before any run.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why of %d chars) vs program's %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %d: %s [%s] vs program's %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be a lower-is-better time in s")
	}
	// 4 + 22 runs per workload, with set-up, must fit the driver's cap.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*(float64(spec.RunSeconds)+8) > 3420-300 {
		t.Errorf("%d runs of %d s do not fit 3420 s with set-up and two builds", runs, spec.RunSeconds)
	}
}

func TestPinnedAPIIsListedInTheREADME(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pinnedAPI {
		if p.fn == nil || seen[p.name] {
			t.Errorf("pinned %q is nil or listed twice", p.name)
		}
		seen[p.name] = true
		if !strings.Contains(string(readme), "`"+p.name+"`") {
			t.Errorf("README.md does not list pinned function `%s`", p.name)
		}
	}
	for _, m := range endToEnd {
		if !strings.Contains(string(readme), "`"+m.name+"`") {
			t.Errorf("README.md does not describe end-to-end metric `%s`", m.name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(string(readme), "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload `%s`", w.name)
		}
	}
}

// Every per-layer metric the program fills is one it declares, so a
// traced pass can never print a name BENCHMARK.json does not list.
func TestLayerNamesAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	src, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`layer\["([^"]+)"(\+[a-zA-Z.\[\]()]+)?\]`)
	for _, f := range src {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			if m[2] != "" { // a prefix completed at run time
				ok := false
				for n := range declared {
					ok = ok || strings.HasPrefix(n, m[1])
				}
				if !ok {
					t.Errorf("%s: no declared metric starts with %q", f, m[1])
				}
			} else if !declared[m[1]] {
				t.Errorf("%s: per-layer metric %q is not declared in spec.go", f, m[1])
			}
		}
	}
}
