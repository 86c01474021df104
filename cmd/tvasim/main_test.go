package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as tvasim itself: with TVASIM_AS_MAIN=1 in its
// environment the test binary runs main on its arguments, so a test
// can watch a real exit status.
func TestMain(m *testing.M) {
	if os.Getenv("TVASIM_AS_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet("tvasim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// TestSweepGolden pins every table tvasim prints at seed 1: Figs. 8–10
// for four schemes at attacker counts 1 and 10 over 3 simulated
// seconds, Fig. 11's two attack schedules over 14 s (the attack starts
// at 10 s), the -fairness sender sweep, and both -fault sweeps (the
// last restart comes too late for any transfer to recover). Together
// they run each of the four attacker kinds and every fault column.
func TestSweepGolden(t *testing.T) {
	sweep := []string{"-attackers", "1,10", "-duration", "3", "-seed", "1"}
	short := []string{"-duration", "3", "-seed", "1"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fig8", append([]string{"-fig", "8"}, sweep...)},
		{"fig9", append([]string{"-fig", "9"}, sweep...)},
		{"fig10", append([]string{"-fig", "10"}, sweep...)},
		{"fig11", []string{"-fig", "11", "-duration", "14", "-seed", "1"}},
		{"fairness", append([]string{"-fairness", "-users", "2,5", "-attackers", "10"}, short...)},
		{"fault_loss", append([]string{"-fault", "loss", "-loss-rates", "0,0.1"}, short...)},
		{"fault_restart", append([]string{"-fault", "restart", "-restart-times", "1,2,2.99"}, short...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name+".txt", runMain(t, tc.args...))
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

// TestRejectsBadFlagValues runs tvasim on flag values exp would
// silently reinterpret (a zero read as "use the default", a negative
// count as "none", a probability outside [0, 1], a restart time at
// which no restart happens, a metrics interval that turns sampling
// off, an empty scheme list the instrumented run would replace with
// TVA, a negative span count or drop-storm threshold read as "off").
// Each must exit 2 before running anything, naming the flag.
func TestRejectsBadFlagValues(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "f.csv")
	dump := filepath.Join(t.TempDir(), "f.trace")
	one := []string{"-fig", "8", "-schemes", "tva", "-attackers", "1", "-duration", "1"}
	for _, tc := range []struct {
		name, flag string
		args       []string
	}{
		{"users_zero", "-users", []string{"-fairness", "-users", "0", "-schemes", "tva", "-attackers", "1", "-duration", "1"}},
		{"users_negative", "-users", []string{"-fairness", "-users", "-1", "-schemes", "tva", "-attackers", "1", "-duration", "1"}},
		{"duration_negative", "-duration", append(one, "-duration", "-1")},
		{"duration_zero", "-duration", append(one, "-duration", "0")},
		{"attackers_negative", "-attackers", append(one, "-attackers", "-2")},
		{"schemes_empty", "-schemes", append(one, "-schemes", ",", "-metrics", csv)},
		{"loss_above_one", "-loss-rates", []string{"-fault", "loss", "-loss-rates", "1.5", "-schemes", "tva", "-duration", "1"}},
		{"loss_negative", "-loss-rates", []string{"-fault", "loss", "-loss-rates", "0.1,-0.2", "-schemes", "tva", "-duration", "1"}},
		{"restart_negative", "-restart-times", []string{"-fault", "restart", "-restart-times", "-3", "-schemes", "tva", "-duration", "1"}},
		{"restart_zero", "-restart-times", []string{"-fault", "restart", "-restart-times", "0.5,0", "-schemes", "tva", "-duration", "1"}},
		{"metrics_interval_zero", "-metrics-interval", append(one, "-metrics", csv, "-metrics-interval", "0")},
		{"metrics_interval_negative", "-metrics-interval", append(one, "-metrics", csv, "-metrics-interval", "-5")},
		{"trace_negative", "-trace", append(one, "-trace", "-3")},
		{"trace_spans_negative", "-trace-spans", append(one, "-trace-spans", "-5")},
		{"storm_pkts_negative", "-storm-pkts", append(one, "-tracefile", dump, "-storm-pkts", "-1")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "TVASIM_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("tvasim %s: err %v, want exit status 2\nstdout:\n%s", strings.Join(tc.args, " "), err, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("message %q does not name %s", stderr.String(), tc.flag)
			}
			if stdout.Len() > 0 {
				t.Errorf("printed output before refusing:\n%s", stdout.String())
			}
		})
	}
}
