// The hotpath analyzer: the static twin of overlay's TestTable1NoAllocs.
//
// That test pins Table 1 allocs/op after the fact; this check
// explains *why* the number stays zero, by proving no construct that
// allocates (or formats, or reads the wall clock) is reachable from an
// annotated entry point. A function opts in with
//
//	//tva:hotpath
//
// in its doc comment. The analyzer walks every function it statically
// calls within the module (interface dispatch and function values are
// not followed — annotate implementations separately) and flags:
//
//   - calls into fmt (formatting allocates and reflects);
//   - time.Now / time.Since / time.Until (wall clock on a simulated
//     data path is also a determinism bug);
//   - non-constant string concatenation;
//   - map and slice composite literals, make of map/slice/chan, new,
//     and &T{...} (heap allocations);
//   - closures (the closure and its captures escape);
//   - append whose destination escapes (a field, an element, a
//     global), unless it is the self-append idiom `x.f = append(x.f,
//     ...)` that recycles capacity and is amortized allocation-free.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathMarker is the doc-comment annotation that marks a function as
// part of the allocation-free forwarding path.
const HotPathMarker = "//tva:hotpath"

// HotPath is the hotpath analyzer.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocations, fmt, and wall clocks in //tva:hotpath functions and their module callees",
	Run:  runHotPath,
}

// hotWork is one function pending a hot-path scan, tagged with the
// annotated root it was reached from.
type hotWork struct {
	fd   *FuncDecl
	root string
}

func runHotPath(prog *Program, pkgs []*Package) []Finding {
	// Roots: annotated declarations in the requested packages.
	var work []hotWork
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if strings.HasPrefix(c.Text, HotPathMarker) {
						work = append(work, hotWork{&FuncDecl{Pkg: pkg, Decl: fd}, funcDisplayName(fd)})
						break
					}
				}
			}
		}
	}

	seen := map[*ast.FuncDecl]bool{}
	var findings []Finding
	for len(work) > 0 {
		item := work[0]
		work = work[1:]
		if seen[item.fd.Decl] {
			continue
		}
		seen[item.fd.Decl] = true
		pkg := item.fd.Pkg
		suffix := ""
		if name := funcDisplayName(item.fd.Decl); name != item.root {
			suffix = " (in " + name + ", reachable from //tva:hotpath " + item.root + ")"
		}
		report := func(pos token.Pos, msg string) {
			findings = append(findings, Finding{
				Pos:     prog.Fset.Position(pos),
				Check:   "hotpath",
				Message: msg + suffix,
			})
		}
		if item.fd.Decl.Body == nil {
			continue
		}
		ast.Inspect(item.fd.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				report(n.Pos(), "closure allocation on the hot path")
				return false // the closure body runs elsewhere
			case *ast.CallExpr:
				if fn := funcFor(pkg.Info, n); fn != nil {
					checkHotCall(prog, n, fn, report, &work, item.root)
				} else if b := builtinFor(pkg.Info, n); b == "make" {
					switch pkg.Info.Types[n].Type.Underlying().(type) {
					case *types.Map, *types.Slice, *types.Chan:
						report(n.Pos(), "make("+types.TypeString(pkg.Info.Types[n].Type, types.RelativeTo(pkg.Types))+") allocates on the hot path")
					}
				} else if b == "new" {
					report(n.Pos(), "new(...) allocates on the hot path")
				}
			case *ast.CompositeLit:
				switch pkg.Info.Types[n].Type.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), "map literal allocates on the hot path")
				case *types.Slice:
					report(n.Pos(), "slice literal allocates on the hot path")
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						report(n.Pos(), "&composite literal escapes to the heap on the hot path")
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isNonConstString(pkg.Info, n) {
					report(n.Pos(), "string concatenation allocates on the hot path")
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isNonConstString(pkg.Info, n.Lhs[0]) {
					report(n.Pos(), "string concatenation allocates on the hot path")
				}
				checkAppends(pkg, n, report)
			}
			return true
		})
	}
	return findings
}

// checkHotCall flags forbidden callees and enqueues module callees for
// traversal.
func checkHotCall(prog *Program, call *ast.CallExpr, fn *types.Func, report func(token.Pos, string), work *[]hotWork, root string) {
	if p := fn.Pkg(); p != nil {
		switch p.Path() {
		case "fmt":
			report(call.Pos(), "calls fmt."+fn.Name()+" (formatting allocates)")
			return
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				report(call.Pos(), "calls time."+fn.Name()+" (wall clock on the hot path)")
				return
			}
		}
	}
	if prog.InModule(fn.Pkg()) {
		if fd, ok := prog.FuncDecls[fn]; ok {
			*work = append(*work, hotWork{fd, root})
		}
	}
}

// checkAppends flags appends whose destination escapes the local
// frame. `x = append(x, ...)` with a matching non-local destination is
// the capacity-recycling idiom and is allowed; `p.f = append(other,
// ...)` and appends assigned to fields/elements/globals are not.
func checkAppends(pkg *Package, assign *ast.AssignStmt, report func(token.Pos, string)) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || builtinFor(pkg.Info, call) != "append" || len(call.Args) == 0 {
			continue
		}
		lhs := ast.Unparen(assign.Lhs[i])
		if id, ok := lhs.(*ast.Ident); ok {
			// Appending into a function-local slice variable: growth is
			// amortized into the variable's own capacity. Package-level
			// destinations still escape.
			if obj := pkg.Info.Defs[id]; obj != nil && obj.Parent() != pkg.Types.Scope() {
				continue
			}
			if obj, ok := pkg.Info.Uses[id].(*types.Var); ok && obj.Parent() != pkg.Types.Scope() {
				continue
			}
		}
		if exprKey(lhs) == exprKey(ast.Unparen(call.Args[0])) {
			continue // self-append: x.f = append(x.f, ...) recycles capacity
		}
		report(call.Pos(), "append into escaping destination on the hot path (self-append `x = append(x, ...)` is the allowed idiom)")
	}
}

// isNonConstString reports whether e has string type and is not a
// compile-time constant (constant concatenation folds away).
func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// exprKey renders a canonical string for simple lvalue expressions so
// self-appends can be recognized structurally.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(ast.Unparen(e.X)) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(ast.Unparen(e.X)) + "[" + exprKey(ast.Unparen(e.Index)) + "]"
	case *ast.StarExpr:
		return "*" + exprKey(ast.Unparen(e.X))
	case *ast.BasicLit:
		return e.Value
	default:
		return "?"
	}
}

// funcDisplayName renders pkg-relative names like "(*Router).Process".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	return "(" + typeExprString(recv) + ")." + fd.Name.Name
}

func typeExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + typeExprString(e.X)
	case *ast.IndexExpr:
		return typeExprString(e.X)
	default:
		return "?"
	}
}
