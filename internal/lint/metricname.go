// The metricname analyzer: the sim-vs-real story (ROADMAP item 5)
// only holds if both data planes emit the same series under the same
// names, and every consumer — tvatop, scripts/metrics_smoke.sh, the
// bench harness — asks for names that actually exist. All of those
// names live in internal/metrics/names.go; this analyzer makes the
// contract mechanical in the metric-facing packages (internal/overlay,
// internal/exp, cmd/tvatop, cmd/tvarouter):
//
//   - no stray series-name string literals ("tva_..."): every name is
//     spelled as an internal/metrics Name* constant, so a rename is a
//     compile error everywhere at once;
//   - a Registry registration (Counter, Gauge, CounterVar,
//     SketchQuantiles) must take its name from an internal/metrics
//     constant — a literal or a package-local constant reintroduces
//     drift one hop away;
//   - plane coverage: internal/overlay must register everything in
//     metrics.OverlaySeries and internal/exp everything in
//     metrics.SimSeries (each a superset of SharedSeries, the
//     both-planes contract), and must not register a constant-named
//     series those lists do not declare. Missing-series findings
//     anchor at the plane package's package clause; undeclared
//     registrations anchor at the registration call.
//
// Together with `tvatop -require-set`, which resolves its required
// list from the same constants, a series can no longer exist in one
// plane, be required by a script, and be missing from the other.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricName is the metricname analyzer.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "require series names to come from internal/metrics constants and both data planes to register their declared series lists",
	Run:  runMetricName,
}

// metricNamePkgs lists the module-relative packages the analyzer
// enforces; planes additionally name the declared list they must
// cover.
var (
	metricNamePkgs  = []string{"internal/overlay", "internal/exp", "cmd/tvatop", "cmd/tvarouter"}
	metricPlaneList = map[string]string{
		"internal/overlay": "OverlaySeries",
		"internal/exp":     "SimSeries",
	}
	// registryMethods are the Registry calls whose first argument is a
	// series name.
	registryMethods = map[string]bool{
		"Counter": true, "Gauge": true, "CounterVar": true,
		"SketchQuantiles": true,
	}
	seriesLiteral = regexp.MustCompile(`^tva_[a-z0-9_]+$`)
)

func runMetricName(prog *Program, pkgs []*Package) []Finding {
	metricsPath := prog.Module + "/internal/metrics"
	lists := metricLists(prog.ByPath[metricsPath])

	var findings []Finding
	report := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, Finding{
			Pos:     prog.Fset.Position(pos),
			Check:   "metricname",
			Message: fmt.Sprintf(format, args...),
		})
	}

	for _, pkg := range pkgs {
		rel, enforced := metricNameRel(prog, pkg)
		if !enforced {
			continue
		}

		// Registrations first: their name arguments are exempt from the
		// literal rule (the registration rule owns them).
		registered := map[string]token.Pos{} // series name -> first registration
		handled := map[ast.Node]bool{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := funcFor(pkg.Info, call)
				if fn == nil || !registryMethods[fn.Name()] || !recvIsRegistry(fn, metricsPath) {
					return true
				}
				arg := ast.Unparen(call.Args[0])
				handled[arg] = true
				tv, ok := pkg.Info.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					report(arg.Pos(), "series name passed to Registry.%s is not a compile-time constant; use an internal/metrics constant", fn.Name())
					return true
				}
				name := constant.StringVal(tv.Value)
				if _, ok := registered[name]; !ok {
					registered[name] = call.Pos()
				}
				if !constFromPkg(pkg.Info, arg, metricsPath) {
					report(arg.Pos(), "Registry.%s must name its series with an internal/metrics constant, not %s", fn.Name(), strconv.Quote(name))
				}
				return true
			})
		}

		// Stray literals.
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING || handled[ast.Node(lit)] {
					return true
				}
				if s, err := strconv.Unquote(lit.Value); err == nil && seriesLiteral.MatchString(s) {
					report(lit.Pos(), "series-name string literal %s; spell it as the internal/metrics Name* constant", lit.Value)
				}
				return true
			})
		}

		// Plane coverage against the declared lists.
		listName, isPlane := metricPlaneList[rel]
		if !isPlane || lists == nil {
			continue
		}
		declared := map[string]string{} // name -> list that declares it
		for _, entry := range [2]string{listName, "SharedSeries"} {
			for _, name := range lists[entry] {
				if _, ok := declared[name]; !ok {
					declared[name] = entry
				}
			}
		}
		var missing []string
		for name, from := range declared {
			if _, ok := registered[name]; !ok {
				missing = append(missing, name+"\x00"+from)
			}
		}
		sort.Strings(missing)
		for _, m := range missing {
			name, from, _ := strings.Cut(m, "\x00")
			report(pkg.Files[0].Package, "series %s (metrics.%s) is not registered by %s", strconv.Quote(name), from, pkg.Path)
		}
		for name, pos := range registered {
			if _, ok := declared[name]; ok {
				continue
			}
			if contains(lists["BenchSeries"], name) {
				continue // bench-harness series share the plane package
			}
			report(pos, "registers %s, which metrics.%s does not declare; add it to internal/metrics/names.go or drop the registration", strconv.Quote(name), listName)
		}
	}
	return findings
}

// metricNameRel matches pkg against the enforced package list and
// returns its module-relative path.
func metricNameRel(prog *Program, pkg *Package) (string, bool) {
	for _, rel := range metricNamePkgs {
		if pkg.Path == prog.Module+"/"+rel {
			return rel, true
		}
	}
	return "", false
}

// recvIsRegistry reports whether fn is a method on metrics.Registry.
func recvIsRegistry(fn *types.Func, metricsPath string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedType(sig.Recv().Type(), metricsPath, "Registry")
}

// constFromPkg reports whether e resolves to a constant declared in
// the package at path.
func constFromPkg(info *types.Info, e ast.Expr, path string) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	return ok && c.Pkg() != nil && c.Pkg().Path() == path
}

// metricLists evaluates the Series slice declarations in the loaded
// internal/metrics package: list name -> constant-folded element
// values. Returns nil when the package (or any list element) cannot be
// resolved, in which case plane coverage is skipped.
func metricLists(pkg *Package) map[string][]string {
	if pkg == nil {
		return nil
	}
	lists := map[string][]string{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				name := vs.Names[0].Name
				if name != "SharedSeries" && name != "OverlaySeries" && name != "SimSeries" && name != "BenchSeries" {
					continue
				}
				cl, ok := ast.Unparen(vs.Values[0]).(*ast.CompositeLit)
				if !ok {
					return nil
				}
				for _, elt := range cl.Elts {
					tv, ok := pkg.Info.Types[elt]
					if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
						return nil
					}
					lists[name] = append(lists[name], constant.StringVal(tv.Value))
				}
			}
		}
	}
	if len(lists) == 0 {
		return nil
	}
	return lists
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
