// Fixture tests: each analyzer runs over a seeded testdata package and
// its findings are matched, line by line, against `// want "substr"`
// comments in the fixture source. Every fixture also contains the
// corresponding legal idioms, so the tests prove both directions:
// violations are caught, allowed patterns are not.
package lint_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"tva/internal/lint"
	"tva/internal/metrics"
)

var (
	progOnce sync.Once
	prog     *lint.Program
	progErr  error

	fixtureMu sync.Mutex
	fixtures  = map[string]*lint.Package{}
)

// loadProg loads (once per test binary) the module packages the
// fixtures import, so fixture types share identity with the real
// telemetry.DropReason and packet.Packet.
func loadProg(t *testing.T) *lint.Program {
	t.Helper()
	progOnce.Do(func() {
		prog, progErr = lint.Load("../..", "./internal/telemetry", "./internal/packet", "./internal/metrics")
	})
	if progErr != nil {
		t.Fatalf("loading module packages: %v", progErr)
	}
	return prog
}

// loadFixture registers a testdata package (invisible to go list)
// under importPath in the shared program.
func loadFixture(t *testing.T, p *lint.Program, dir, importPath string) *lint.Package {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if pkg, ok := fixtures[importPath]; ok {
		return pkg
	}
	pkg, err := p.AddDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	fixtures[importPath] = pkg
	return pkg
}

// runFixture applies one analyzer to one fixture package and matches
// the findings against the fixture's want comments.
func runFixture(t *testing.T, a *lint.Analyzer, dir, importPath string) {
	t.Helper()
	p := loadProg(t)
	pkg := loadFixture(t, p, dir, importPath)
	findings := lint.Run(p, []*lint.Package{pkg}, []*lint.Analyzer{a})

	type want struct {
		substr  string
		matched bool
	}
	wants := map[int][]*want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				sub, err := strconv.Unquote(strings.TrimSpace(strings.TrimPrefix(text, "want ")))
				if err != nil {
					t.Fatalf("bad want comment %q: %v", c.Text, err)
				}
				line := p.Fset.Position(c.Pos()).Line
				wants[line] = append(wants[line], &want{substr: sub})
			}
		}
	}

	for _, f := range findings {
		matched := false
		for _, w := range wants[f.Pos.Line] {
			if !w.matched && strings.Contains(f.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s/%d: expected a finding containing %q, got none", dir, line, w.substr)
			}
		}
	}
}

func TestHotPathFixture(t *testing.T) {
	runFixture(t, lint.HotPath, "testdata/src/hotpath", loadProg(t).Module+"/fixture/hotpath")
}

func TestDeterminismFixture(t *testing.T) {
	// Registered under a simulator-facing import path so the
	// analyzer's package filter covers it.
	runFixture(t, lint.Determinism, "testdata/src/determinism", loadProg(t).Module+"/internal/netsim")
}

func TestDropReasonFixture(t *testing.T) {
	runFixture(t, lint.DropReasonCheck, "testdata/src/dropreason", loadProg(t).Module+"/fixture/dropreason")
}

func TestPoolOwnerFixture(t *testing.T) {
	runFixture(t, lint.PoolOwner, "testdata/src/poolowner", loadProg(t).Module+"/fixture/poolowner")
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, lint.LockOrder, "testdata/src/lockorder", loadProg(t).Module+"/fixture/lockorder")
}

func TestGoLeakFixture(t *testing.T) {
	runFixture(t, lint.GoLeak, "testdata/src/goleak", loadProg(t).Module+"/fixture/goleak")
}

func TestMetricNameFixture(t *testing.T) {
	// Registered under an enforced cmd/ import path so the analyzer's
	// package filter covers it.
	runFixture(t, lint.MetricName, "testdata/src/metricname", loadProg(t).Module+"/cmd/tvatop")
}

// TestMetricNameCrossPlane pins the plane-coverage rule against the
// real exported lists: a plane fixture that registers only the shared
// contract must be missing exactly the sim-only series, and an overlay
// fixture registering a sim-only series must be told the overlay list
// does not declare it.
func TestMetricNameCrossPlane(t *testing.T) {
	p := loadProg(t)

	overlayPkg := loadFixture(t, p, "testdata/src/metricoverlay", p.Module+"/internal/overlay")
	got := lint.Run(p, []*lint.Package{overlayPkg}, []*lint.Analyzer{lint.MetricName})
	if len(got) != 1 || !strings.Contains(got[0].Message, strconv.Quote(metrics.NameGoodputBytes)) ||
		!strings.Contains(got[0].Message, "does not declare") {
		for _, f := range got {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("overlay fixture: want exactly one undeclared-registration finding for %s, got %d findings",
			metrics.NameGoodputBytes, len(got))
	}

	shared := map[string]bool{}
	for _, name := range metrics.SharedSeries {
		shared[name] = true
	}
	wantMissing := map[string]bool{}
	for _, name := range metrics.SimSeries {
		if !shared[name] {
			wantMissing[name] = true
		}
	}
	if len(wantMissing) == 0 {
		t.Fatal("metrics.SimSeries has no sim-only series; fixture premise broken")
	}

	simPkg := loadFixture(t, p, "testdata/src/metricsim", p.Module+"/internal/exp")
	got = lint.Run(p, []*lint.Package{simPkg}, []*lint.Analyzer{lint.MetricName})
	if len(got) != len(wantMissing) {
		for _, f := range got {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("sim fixture: got %d findings, want %d (SimSeries minus SharedSeries)", len(got), len(wantMissing))
	}
	for _, f := range got {
		if !strings.Contains(f.Message, "not registered") {
			t.Errorf("sim fixture: finding is not a missing-series report: %s", f)
			continue
		}
		matched := ""
		for name := range wantMissing {
			if strings.Contains(f.Message, strconv.Quote(name)) {
				matched = name
				break
			}
		}
		if matched == "" {
			t.Errorf("sim fixture: finding names an unexpected series: %s", f)
			continue
		}
		delete(wantMissing, matched)
	}
	for name := range wantMissing {
		t.Errorf("sim fixture: no finding reported missing series %q", name)
	}
}

// TestIgnoreDirectives asserts suppression and malformed-directive
// reporting explicitly: the malformed directives cannot carry want
// comments, because trailing text would become their reason.
func TestIgnoreDirectives(t *testing.T) {
	p := loadProg(t)
	pkg := loadFixture(t, p, "testdata/src/ignoretest", p.Module+"/fixture/ignoretest")
	findings := lint.Run(p, []*lint.Package{pkg}, []*lint.Analyzer{lint.DropReasonCheck})

	expect := []struct{ check, substr string }{
		{"dropreason", "zero-value telemetry.DropReason"}, // the unsuppressed call
		{"ignore", `unknown check "notacheck"`},
		{"ignore", "needs a reason"},
	}
	if len(findings) != len(expect) {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(findings), len(expect))
	}
	for i, e := range expect {
		if findings[i].Check != e.check || !strings.Contains(findings[i].Message, e.substr) {
			t.Errorf("finding %d = %s; want check %q containing %q", i, findings[i], e.check, e.substr)
		}
	}
}
