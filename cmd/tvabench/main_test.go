package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as tvabench itself: with TVABENCH_AS_MAIN=1 in its
// environment the test binary runs main on its arguments, so a test
// can watch a real exit status.
func TestMain(m *testing.M) {
	if os.Getenv("TVABENCH_AS_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet("tvabench", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlagValues runs tvabench on a table or figure it does
// not measure and on a measurement window that is not positive. Each
// must exit 2 before measuring anything, naming the flag, instead of
// printing nothing (or a zero-length measurement) and exiting 0.
func TestRejectsBadFlagValues(t *testing.T) {
	for _, tc := range []struct {
		name, flag string
		args       []string
	}{
		{"table_2", "-table", []string{"-table", "2"}},
		{"table_negative", "-table", []string{"-table", "-1"}},
		{"fig_11", "-fig", []string{"-fig", "11"}},
		{"dur_zero", "-dur", []string{"-fig", "12", "-dur", "0"}},
		{"dur_negative", "-dur", []string{"-guard-batch", "-dur", "-1ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "TVABENCH_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("tvabench %s: err %v, want exit status 2\nstdout:\n%s", strings.Join(tc.args, " "), err, stdout.String())
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
