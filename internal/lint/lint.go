// Package lint is the repository's custom static-analysis framework:
// a stdlib-only (go/parser + go/types, no golang.org/x/tools) driver
// plus the seven analyzers that machine-check the invariants the rest
// of the tree merely promises in comments:
//
//   - hotpath: functions annotated //tva:hotpath, and everything they
//     statically call within the module, must stay allocation-free
//     (the static twin of the tvabench bench-guard);
//   - determinism: simulator-facing code may not read wall clocks, use
//     the global math/rand, or iterate maps where order leaks into
//     results;
//   - dropreason: drop/demote/reject sites must name a concrete
//     telemetry.DropReason, and switches over DropReason must be
//     exhaustive;
//   - poolowner: a pooled *packet.Packet must reach exactly one
//     Release or ownership handoff on every return path;
//   - lockorder: mutex Lock/Unlock pairing per scope, a consistent
//     global acquisition order, no blocking operation while a
//     //tva:hotpath function holds a lock, and no sync/atomic function
//     calls (only the typed atomics);
//   - goleak: every go statement carries a provable shutdown edge
//     (done-channel receive, WaitGroup, or a loop-free body);
//   - metricname: metric series names come from the internal/metrics
//     constants, and each data plane registers exactly the series its
//     declared list promises.
//
// Findings can be suppressed one at a time with
//
//	//lint:ignore <check> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory; a bare ignore is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Finding is one rule violation at one position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats a finding the way compilers do, so editors can jump
// to it.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// An Analyzer is one named check. Run receives the whole program plus
// the subset of packages to report on; analyzers may traverse beyond
// that subset (hotpath follows calls wherever they lead) but should
// anchor findings in the requested packages when they can.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, pkgs []*Package) []Finding
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotPath, Determinism, DropReasonCheck, PoolOwner, LockOrder, GoLeak, MetricName}
}

// ByName returns the named analyzers, or an error naming the first
// unknown one.
func ByName(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown check %q", n)
		}
	}
	return out, nil
}

// Run applies the analyzers to pkgs (nil means every package in prog),
// filters findings through //lint:ignore directives, reports malformed
// directives, and returns everything sorted by position.
func Run(prog *Program, pkgs []*Package, analyzers []*Analyzer) []Finding {
	if pkgs == nil {
		pkgs = prog.Packages
	}
	ignores := collectIgnores(prog, pkgs)
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(prog, pkgs) {
			if !ignores.suppress(f) {
				out = append(out, f)
			}
		}
	}
	out = append(out, ignores.malformed...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// funcFor resolves a call expression to the invoked *types.Func, or
// nil when the callee is not a statically known function or method
// (builtins, conversions, calls through function values).
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// builtinFor resolves a call to the builtin it invokes ("append",
// "make", ...), or "".
func builtinFor(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isConversion reports whether the call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}

// namedType reports whether t (or its pointer elem) is the named type
// pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
