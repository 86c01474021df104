package main

import (
	"bytes"
	"strings"
	"testing"

	"tva/internal/xcheck"
)

func TestListPrintsEveryBuiltin(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(xcheck.Builtins) {
		t.Fatalf("-list printed %d lines for %d builtins:\n%s", len(lines), len(xcheck.Builtins), stdout.String())
	}
	for i, s := range xcheck.Builtins {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != s.Name {
			t.Errorf("line %d = %q, want builtin %q", i, lines[i], s.Name)
		}
	}
}

func TestRefusals(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"unknown scenario", []string{"no-such-scenario"}, 1, "unknown scenario"},
		{"missing spec file", []string{"-scenario", "testdata-missing.json"}, 1, "tvaxcheck:"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("stderr %q lacks %q", stderr.String(), c.msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("refusal wrote stdout: %q", stdout.String())
			}
		})
	}
}
