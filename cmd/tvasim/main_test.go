package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runMain runs tvasim's main in-process with args, on a fresh flag
// set, and returns what it printed to stdout.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()

	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	os.Args = append([]string{"tvasim"}, args...)
	flag.CommandLine = flag.NewFlagSet("tvasim", flag.ContinueOnError)
	os.Stdout = out
	main()

	if _, err := out.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", name, name, got, want)
	}
}

// TestSweepGolden pins every figure's table at seed 1: Figs. 8–10 for
// four schemes at attacker counts 1 and 10 over 3 simulated seconds,
// and Fig. 11's two attack schedules over 14 s (the attack starts at
// 10 s). Together they run each of the four attacker kinds.
func TestSweepGolden(t *testing.T) {
	sweep := []string{"-attackers", "1,10", "-duration", "3", "-seed", "1"}
	for _, tc := range []struct {
		fig  string
		args []string
	}{
		{"8", sweep},
		{"9", sweep},
		{"10", sweep},
		{"11", []string{"-duration", "14", "-seed", "1"}},
	} {
		t.Run("fig"+tc.fig, func(t *testing.T) {
			got := runMain(t, append([]string{"-fig", tc.fig}, tc.args...)...)
			checkGolden(t, "fig"+tc.fig+".txt", got)
		})
	}
}

// TestInstrumentedGolden pins an instrumented run's printout (drop
// attribution, health log, queue-delay and delivery quantiles), its
// -metrics CSV and its -prom exposition, for TVA and SIFF.
func TestInstrumentedGolden(t *testing.T) {
	for _, scheme := range []string{"tva", "siff"} {
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			csv := filepath.Join(dir, scheme+".csv")
			prom := filepath.Join(dir, scheme+".prom")
			got := runMain(t, "-fig", "8", "-schemes", scheme, "-attackers", "1,10",
				"-duration", "3", "-seed", "1", "-metrics", csv, "-prom", prom)
			checkGolden(t, scheme+"_run.txt", strings.ReplaceAll(got, dir, "OUT"))
			for _, f := range []string{csv, prom} {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, filepath.Base(f), string(b))
			}
		})
	}
}
