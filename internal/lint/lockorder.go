// The lockorder analyzer: lock discipline for the concurrent packages
// (the overlay router and host and the lock-free-adjacent metrics
// plumbing) that `-race` can only probe probabilistically.
//
// Four rules, the first three checked per function body (a func
// literal is its own scope — goroutine bodies pair their own locks):
//
//   - pairing: a mutex Lock (or RLock) must have a matching Unlock
//     (RUnlock) somewhere in the same scope — a plain call on some
//     path, or a defer. A scope that acquires and provably never
//     releases is a finding. The overlay's unlock-inside-select-case
//     idiom passes: any matching release in the scope counts.
//   - ordering: whenever two distinct mutexes are held nested inside
//     one scope, the acquisition edge (held → acquired) joins a
//     program-wide graph; an edge whose reverse is reachable is an
//     inversion (two goroutines taking the locks in opposite order
//     deadlock). Re-locking the same mutex expression while it is
//     held is reported as a self-deadlock.
//   - hot-path blocking: a //tva:hotpath function must not block
//     while holding a lock — no channel send or receive, no select
//     without a default, no time.Sleep, no WaitGroup.Wait. (Cond.Wait
//     is exempt: it releases the lock it waits on.)
//   - typed atomics: no sync/atomic function calls. The typed atomics
//     (atomic.Uint64 and friends) make a plain access to an atomic
//     value a compile error and keep 64-bit values 8-aligned on 32-bit
//     targets, so with no raw call in the tree neither hazard needs an
//     analysis.
//
// The walk is a linear abstract interpretation: branches run with a
// copy of the held set and the straight-line continuation keeps the
// entry state, so conditional unlocks never poison the suffix.
// Interprocedural nesting (f locks A, calls g which locks B) is out of
// scope — annotate with //lint:ignore where a genuine handoff exists.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockOrder is the lockorder analyzer.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce Lock/Unlock pairing per scope, a consistent global lock order, no blocking while a //tva:hotpath function holds a lock, and typed atomics only",
	Run:  runLockOrder,
}

// lockEdge is one held→acquired nesting observation.
type lockEdge struct{ from, to string }

// heldLock is one mutex on the abstract lock stack. key identifies the
// mutex by declaration (type.field or package var) for cross-function
// ordering; ekey identifies the concrete expression so two instances
// of the same type never look like a recursive acquire.
type heldLock struct {
	key  string
	ekey string
	pos  token.Pos
}

func runLockOrder(prog *Program, pkgs []*Package) []Finding {
	w := &lockWalker{
		prog:  prog,
		edges: map[lockEdge]token.Pos{},
	}
	for _, pkg := range pkgs {
		w.pkg = pkg
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w.runScope(fd.Body, funcDisplayName(fd), hasHotPathMarker(fd))
			}
			// Every func literal is its own pairing scope: goroutine and
			// defer bodies acquire and release on their own timeline.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					w.runScope(n.Body, "func literal", false)
				case *ast.CallExpr:
					fn := funcFor(pkg.Info, n)
					if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
						w.report(n.Pos(), "sync/atomic function call atomic.%s; use the typed atomics (atomic.Uint64 and friends)", fn.Name())
					}
				}
				return true
			})
		}
	}

	// Ordering: report every edge whose reverse is reachable — each
	// acquisition site participating in a cycle gets its own finding.
	for e, pos := range w.edges {
		if w.reaches(e.to, e.from) {
			w.findings = append(w.findings, Finding{
				Pos:   prog.Fset.Position(pos),
				Check: "lockorder",
				Message: fmt.Sprintf("inconsistent lock order: %s acquired while holding %s, but elsewhere %s is acquired (possibly transitively) while holding %s",
					e.to, e.from, e.from, e.to),
			})
		}
	}
	return w.findings
}

type lockWalker struct {
	prog     *Program
	pkg      *Package
	findings []Finding

	edges map[lockEdge]token.Pos // global held→acquired graph

	// Per-scope state, reset by runScope. acquired/released are keyed
	// by lock key plus mode ("/w" or "/r") so RLock demands RUnlock.
	hot      bool
	scope    string
	acquired map[string]acquireSite
	released map[string]bool
}

type acquireSite struct {
	pos  token.Pos
	disp string
}

func (w *lockWalker) report(pos token.Pos, format string, args ...any) {
	w.findings = append(w.findings, Finding{
		Pos:     w.prog.Fset.Position(pos),
		Check:   "lockorder",
		Message: fmt.Sprintf(format, args...),
	})
}

// runScope walks one function (or func literal) body and then checks
// acquire/release pairing for everything it locked.
func (w *lockWalker) runScope(body *ast.BlockStmt, name string, hot bool) {
	w.hot = hot
	w.scope = name
	w.acquired = map[string]acquireSite{}
	w.released = map[string]bool{}
	w.walkStmts(body.List, nil)
	for mode, site := range w.acquired {
		if !w.released[mode] {
			verb := "Unlock"
			if strings.HasSuffix(mode, "/r") {
				verb = "RUnlock"
			}
			w.report(site.pos, "%s is locked in %s with no matching %s (plain or deferred) anywhere in the function",
				site.disp, name, verb)
		}
	}
}

// walkStmts interprets a statement list linearly. Branch bodies run on
// a copy of held; the continuation keeps the entry state.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range stmts {
		held = w.walkStmt(s, held)
	}
	return held
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func (w *lockWalker) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, ekey, method, ok := w.mutexCall(call); ok {
				return w.mutexOp(call.Pos(), key, ekey, method, held)
			}
		}
		w.blockingScan(s, held)
	case *ast.DeferStmt:
		w.deferredReleases(s.Call)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.walkStmts(s.Body.List, cloneHeld(held))
		if s.Else != nil {
			w.walkStmt(s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.walkStmts(s.Body.List, cloneHeld(held))
	case *ast.RangeStmt:
		if w.hot && len(held) > 0 {
			if tv, ok := w.pkg.Info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.report(s.Pos(), "channel range while %s holds %s on the hot path", w.scope, heldNames(held))
				}
			}
		}
		w.walkStmts(s.Body.List, cloneHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CaseClause).Body, cloneHeld(held))
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CaseClause).Body, cloneHeld(held))
		}
	case *ast.SelectStmt:
		if w.hot && len(held) > 0 && !selectHasDefault(s) {
			w.report(s.Pos(), "select with no default blocks while %s holds %s on the hot path", w.scope, heldNames(held))
		}
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CommClause).Body, cloneHeld(held))
		}
	case *ast.SendStmt:
		if w.hot && len(held) > 0 {
			w.report(s.Pos(), "channel send while %s holds %s on the hot path", w.scope, heldNames(held))
		}
	case *ast.GoStmt:
		// The goroutine body is its own scope (enumerated separately).
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	default:
		w.blockingScan(s, held)
	}
	return held
}

// mutexOp applies one Lock/Unlock-family call to the abstract state.
func (w *lockWalker) mutexOp(pos token.Pos, key, ekey, method string, held []heldLock) []heldLock {
	disp := key
	switch method {
	case "Lock", "RLock":
		for _, h := range held {
			if h.key != key {
				// Distinct mutexes nested: record the ordering edge.
				if _, seen := w.edges[lockEdge{h.key, key}]; !seen {
					w.edges[lockEdge{h.key, key}] = pos
				}
			} else if h.ekey == ekey {
				w.report(pos, "%s.%s while %s already holds %s (self-deadlock)", disp, method, w.scope, disp)
			}
			// Same key, different expression: two instances of one
			// type — unordered by this analysis, deliberately silent.
		}
		w.acquireOnce(pairKey(key, method), pos, disp)
		return append(held, heldLock{key: key, ekey: ekey, pos: pos})
	case "Unlock", "RUnlock":
		w.released[pairKey(key, method)] = true
		// Pop the most recent matching hold (best effort).
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == key {
				return append(held[:i:i], held[i+1:]...)
			}
		}
	}
	return held
}

func (w *lockWalker) acquireOnce(mode string, pos token.Pos, disp string) {
	if _, ok := w.acquired[mode]; !ok {
		w.acquired[mode] = acquireSite{pos: pos, disp: disp}
	}
}

// pairKey folds Lock/Unlock and RLock/RUnlock onto a shared key+mode.
func pairKey(key, method string) string {
	if strings.HasPrefix(method, "R") {
		return key + "/r"
	}
	return key + "/w"
}

// deferredReleases credits `defer mu.Unlock()` and unlocks inside a
// deferred func literal to the enclosing scope's release set.
func (w *lockWalker) deferredReleases(call *ast.CallExpr) {
	if key, _, method, ok := w.mutexCall(call); ok {
		if method == "Unlock" || method == "RUnlock" {
			w.released[pairKey(key, method)] = true
		}
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if key, _, method, ok := w.mutexCall(c); ok && (method == "Unlock" || method == "RUnlock") {
					w.released[pairKey(key, method)] = true
				}
			}
			return true
		})
	}
}

// blockingScan flags blocking operations nested in a simple statement
// while a hot-path function holds a lock. Func literals are skipped —
// their bodies run on another goroutine's timeline.
func (w *lockWalker) blockingScan(s ast.Stmt, held []heldLock) {
	if !w.hot || len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.report(n.Pos(), "channel receive while %s holds %s on the hot path", w.scope, heldNames(held))
			}
		case *ast.CallExpr:
			if fn := funcFor(w.pkg.Info, n); fn != nil && fn.Pkg() != nil {
				switch {
				case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
					w.report(n.Pos(), "time.Sleep while %s holds %s on the hot path", w.scope, heldNames(held))
				case fn.Pkg().Path() == "sync" && fn.Name() == "Wait" && recvIsSyncType(fn, "WaitGroup"):
					w.report(n.Pos(), "WaitGroup.Wait while %s holds %s on the hot path", w.scope, heldNames(held))
				}
			}
		}
		return true
	})
}

// mutexCall resolves call to a sync.Mutex / sync.RWMutex method and a
// stable identity for the mutex it targets.
func (w *lockWalker) mutexCall(call *ast.CallExpr) (key, ekey, method string, ok bool) {
	fn := funcFor(w.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", "", false
	}
	if !recvIsSyncType(fn, "Mutex") && !recvIsSyncType(fn, "RWMutex") {
		return "", "", "", false
	}
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", "", false
	}
	recv := ast.Unparen(sel.X)
	return w.lockKey(recv), exprKey(recv), fn.Name(), true
}

// recvIsSyncType reports whether fn's receiver is sync.<name> (by
// value or pointer).
func recvIsSyncType(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedType(sig.Recv().Type(), "sync", name)
}

// lockKey renders a declaration-level identity for a mutex expression:
// "pkg.Type.field" for struct fields, "pkg.var" for package-level
// mutexes, the bare expression otherwise (function locals).
func (w *lockWalker) lockKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if tv, ok := w.pkg.Info.Types[ast.Unparen(e.X)]; ok {
			t := tv.Type
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
	case *ast.Ident:
		var obj types.Object
		if o, ok := w.pkg.Info.Uses[e]; ok {
			obj = o
		} else if o, ok := w.pkg.Info.Defs[e]; ok {
			obj = o
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + e.Name
		}
		// Embedded-mutex method call (x.Lock() with x the struct):
		// fall through to the expression itself.
	}
	return exprKey(e)
}

// reaches reports whether `to` is reachable from `from` in the edge
// graph (BFS; the graph is tiny).
func (w *lockWalker) reaches(from, to string) bool {
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for e := range w.edges {
			if e.from == cur && !seen[e.to] {
				if e.to == to {
					return true
				}
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return false
}

func heldNames(held []heldLock) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = h.key
	}
	return strings.Join(names, ", ")
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// hasHotPathMarker reports whether fd's doc comment carries
// //tva:hotpath (shared with the hotpath analyzer's root scan).
func hasHotPathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, HotPathMarker) {
			return true
		}
	}
	return false
}
