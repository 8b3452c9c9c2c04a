// Package poolcheck implements the stashvet analyzer for pool ownership.
// The simulator recycles its hot objects — coherence messages, L1/directory
// TBEs, NoC envelopes — through hand-managed free lists, and the //stash:
// directives name the functions that move values in and out of them:
//
//	//stash:acquire  — the function's pointer result is pool-owned; the
//	                   caller must release or transfer it on every path
//	//stash:release  — the function returns its pooled argument to the pool
//	//stash:transfer — the function takes over ownership of its argument
//	                   (NoC injection, event-queue parks, bank-queue chains)
//
// poolcheck tracks values acquired locally within each function body and
// reports:
//
//   - leaks: an owned value that reaches scope end, a return, or is
//     discarded without being released or transferred on some path
//   - double-release: releasing a value that may already be released
//   - use-after-release: reading a value after it may have been released
//   - releasing a value whose ownership was already transferred
//
// The analysis is intraprocedural. analysis.WalkFunc supplies the control
// flow (how branches, loops and jumps combine states); poolcheck supplies
// may-states joined by union, so "may leak on some path" is reported. A
// return, or reaching the closing brace, leak-checks every tracked value;
// leaving a block, clause or statement leak-checks the values declared in
// it. Function literals are analyzed as functions of their own. Values
// received as parameters are not tracked (ownership conventions at function boundaries
// are expressed by annotating the functions themselves). Transferred values
// may still be read afterwards — the event system shares ownership with the
// scheduler until delivery — but must not be released by the old owner.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the pool ownership check.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc:  "track //stash:acquire'd pooled values and flag leaks, double-releases and use-after-release",
	Run:  run,
}

// state is a bitmask of what may have happened to a tracked value on the
// paths reaching a program point.
type state uint8

const (
	owned    state = 1 << iota // still this function's responsibility
	released                   // returned to its pool
	escaped                    // ownership moved: transferred, stored, aliased, returned
)

// env maps tracked variables to their may-states.
type env map[*types.Var]state

func run(pass *analysis.Pass) error {
	roles := collectRoles(pass.Universe)
	rep := analysis.NewReports(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				analysis.WalkFunc(pass.TypesInfo, newFnAnalyzer(pass, roles, rep, fd), fd.Body, env{})
			}
		}
	}
	return nil
}

// collectRoles scans every loaded package for //stash:acquire/release/
// transfer annotations and maps the annotated functions to their roles.
// Cross-package: a function in internal/coherence may be annotated while the
// caller under analysis lives elsewhere.
func collectRoles(universe []*analysis.PackageInfo) map[*types.Func]string {
	roles := map[*types.Func]string{}
	for _, pi := range universe {
		for _, file := range pi.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				for _, d := range analysis.FuncDirectives(fd.Doc) {
					switch d.Verb {
					case analysis.DirectiveAcquire, analysis.DirectiveRelease, analysis.DirectiveTransfer:
						if fn, ok := pi.Info.Defs[fd.Name].(*types.Func); ok {
							roles[fn] = d.Verb
						}
					}
				}
			}
		}
	}
	return roles
}

// fnAnalyzer is the ownership domain of one function: its states are
// may-states joined by union.
type fnAnalyzer struct {
	pass       *analysis.Pass
	roles      map[*types.Func]string
	rep        *analysis.Reports
	fn         ast.Node // the *ast.FuncDecl or *ast.FuncLit analyzed
	acquiredAt map[*types.Var]token.Pos
}

func newFnAnalyzer(pass *analysis.Pass, roles map[*types.Func]string, rep *analysis.Reports, fn ast.Node) *fnAnalyzer {
	return &fnAnalyzer{pass: pass, roles: roles, rep: rep, fn: fn, acquiredAt: map[*types.Var]token.Pos{}}
}

func (fa *fnAnalyzer) Clone(e env) env {
	out := make(env, len(e))
	for v, s := range e {
		out[v] = s
	}
	return out
}

// Join unions b into a, returning whether a changed.
func (fa *fnAnalyzer) Join(a, b env) bool {
	changed := false
	for v, s := range b {
		if a[v]|s != a[v] {
			a[v] |= s
			changed = true
		}
	}
	return changed
}

// Literal analyzes a function literal from scratch: it tracks only the
// values it acquires itself.
func (fa *fnAnalyzer) Literal(lit *ast.FuncLit) (analysis.Flow[env], env) {
	return newFnAnalyzer(fa.pass, fa.roles, fa.rep, lit), env{}
}

// Panic ends a cold path; nothing is leak-checked on it.
func (fa *fnAnalyzer) Panic(*ast.CallExpr, env) {}

// Return passes the returned values to the caller; every other tracked
// value still owned on some path leaks.
func (fa *fnAnalyzer) Return(results []ast.Expr, _ token.Pos, e env) {
	for _, r := range results {
		fa.Expr(r, e)
		fa.escapeVar(r, e)
	}
	for v, s := range e {
		if s&owned != 0 {
			fa.leak(v)
		}
	}
}

// ScopeEnd leak-checks and drops every tracked variable declared between
// lo and hi.
func (fa *fnAnalyzer) ScopeEnd(lo, hi token.Pos, e env) {
	for v, s := range e {
		if v.Pos() < lo || v.Pos() >= hi {
			continue
		}
		if s&owned != 0 {
			fa.leak(v)
		}
		delete(e, v)
	}
}

func (fa *fnAnalyzer) leak(v *types.Var) {
	fa.rep.Reportf(fa.acquiredAt[v], "pooled value %s may leak: not released or transferred on every path", v.Name())
}

func (fa *fnAnalyzer) Stmt(st ast.Stmt, e env) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		fa.Expr(st.X, e)
		// A discarded acquire result can never be released.
		if call, ok := st.X.(*ast.CallExpr); ok && fa.roleOf(call) == analysis.DirectiveAcquire {
			fa.rep.Reportf(call.Pos(), "result of %s is pool-owned but discarded: it leaks immediately", callName(call))
		}
	case *ast.AssignStmt:
		fa.assign(st, e)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						fa.Expr(val, e)
					}
				}
			}
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred/concurrent effects happen later; give up precision and
		// treat their tracked arguments as escaped.
		var call *ast.CallExpr
		if d, ok := st.(*ast.DeferStmt); ok {
			call = d.Call
		} else {
			call = st.(*ast.GoStmt).Call
		}
		fa.Expr(call.Fun, e)
		for _, a := range call.Args {
			fa.Expr(a, e)
			fa.escapeVar(a, e)
		}
	case *ast.SendStmt:
		fa.Expr(st.Chan, e)
		fa.Expr(st.Value, e)
		fa.escapeVar(st.Value, e)
	case *ast.IncDecStmt:
		fa.Expr(st.X, e)
	}
}

// assign handles ownership-moving assignments: tracking acquire results,
// alias moves, and stores that escape a value into a structure.
func (fa *fnAnalyzer) assign(st *ast.AssignStmt, e env) {
	if len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			fa.assignOne(st.Lhs[i], st.Rhs[i], e)
		}
		return
	}
	// Multi-value form (a, b := f()): no acquire functions return multiple
	// values; just process uses.
	for _, r := range st.Rhs {
		fa.Expr(r, e)
	}
	for _, l := range st.Lhs {
		fa.lhsUses(l, e)
	}
}

func (fa *fnAnalyzer) assignOne(lhs, rhs ast.Expr, e env) {
	// x := acquire(): start tracking x.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && fa.roleOf(call) == analysis.DirectiveAcquire {
		fa.Expr(rhs, e)
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				fa.rep.Reportf(call.Pos(), "result of %s is pool-owned but discarded: it leaks immediately", callName(call))
				return
			}
			if v := fa.localVar(id); v != nil {
				e[v] = owned
				fa.acquiredAt[v] = call.Pos()
				return
			}
		}
		// Acquired straight into a field, a slot or a variable that outlives
		// the function: immediately escaped.
		fa.lhsUses(lhs, e)
		return
	}

	fa.Expr(rhs, e)
	switch ast.Unparen(lhs).(type) {
	case *ast.Ident:
		// y := m: ownership moves to the alias; m stays readable.
		if v := fa.trackedVar(rhs, e); v != nil {
			e[v] = e[v]&^owned | escaped
			if id := ast.Unparen(lhs).(*ast.Ident); id.Name != "_" {
				if nv := fa.localVar(id); nv != nil {
					e[nv] = owned
					fa.acquiredAt[nv] = fa.acquiredAt[v]
				}
			}
		}
	default:
		// x.f = m, arr[i] = m: stored into a structure that outlives the
		// ownership window we can see — escaped.
		fa.lhsUses(lhs, e)
		fa.escapeVar(rhs, e)
	}
}

// lhsUses processes the evaluations buried in an assignment target
// (receiver chains, index expressions) without treating the target itself
// as a read.
func (fa *fnAnalyzer) lhsUses(lhs ast.Expr, e env) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		fa.Expr(lhs.X, e)
	case *ast.IndexExpr:
		fa.Expr(lhs.X, e)
		fa.Expr(lhs.Index, e)
	case *ast.StarExpr:
		fa.Expr(lhs.X, e)
	}
}

// Expr walks an expression, flagging uses of released values and applying
// the ownership effects of annotated calls.
func (fa *fnAnalyzer) Expr(x ast.Expr, e env) {
	switch x := x.(type) {
	case *ast.Ident:
		if v := fa.useVar(x); v != nil {
			if s, ok := e[v]; ok && s&released != 0 {
				fa.rep.Reportf(x.Pos(), "use of %s after release: it may be back in the pool", v.Name())
			}
		}
	case *ast.CallExpr:
		role := fa.roleOf(x)
		for _, a := range x.Args {
			// Handing a value to its release function is not a "use": the
			// releaseVar state checks (double release, released-after-
			// transfer) own the diagnostics for that argument.
			if role == analysis.DirectiveRelease && fa.trackedVar(a, e) != nil {
				continue
			}
			fa.Expr(a, e)
		}
		fa.Expr(x.Fun, e)
		switch role {
		case analysis.DirectiveRelease:
			for _, a := range x.Args {
				fa.releaseVar(a, e)
			}
		case analysis.DirectiveTransfer:
			for _, a := range x.Args {
				fa.escapeVar(a, e)
			}
		}
	case *ast.FuncLit:
		// The literal runs later and is analyzed on its own; captured
		// tracked values escape into the closure.
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := fa.useVar(id); v != nil {
					if _, tracked := e[v]; tracked {
						e[v] = e[v]&^owned | escaped
					}
				}
			}
			return true
		})
	default:
		analysis.Operands(x, func(y ast.Expr) { fa.Expr(y, e) })
		switch x := x.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				fa.escapeVar(x.X, e) // address taken: aliasing beyond our sight
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				fa.escapeVar(analysis.ElemValue(elt), e) // stored into the composite
			}
		}
	}
}

// releaseVar applies a //stash:release call to a tracked argument.
func (fa *fnAnalyzer) releaseVar(arg ast.Expr, e env) {
	v := fa.trackedVar(arg, e)
	if v == nil {
		return
	}
	s := e[v]
	switch {
	case s&released != 0:
		fa.rep.Reportf(arg.Pos(), "double release of %s: it may already be back in the pool", v.Name())
	case s&escaped != 0:
		fa.rep.Reportf(arg.Pos(), "release of %s after its ownership was transferred: the new owner will release it", v.Name())
	}
	e[v] = s&^owned | released
}

// escapeVar moves ownership of a tracked argument out of this function.
func (fa *fnAnalyzer) escapeVar(arg ast.Expr, e env) {
	if v := fa.trackedVar(arg, e); v != nil {
		e[v] = e[v]&^owned | escaped
	}
}

// trackedVar resolves an expression to a tracked variable, unwrapping
// parens.
func (fa *fnAnalyzer) trackedVar(x ast.Expr, e env) *types.Var {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil
	}
	v := fa.useVar(id)
	if v == nil {
		return nil
	}
	if _, tracked := e[v]; !tracked {
		return nil
	}
	return v
}

// useVar resolves an identifier use to its variable object.
func (fa *fnAnalyzer) useVar(id *ast.Ident) *types.Var {
	v, _ := fa.pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// localVar resolves an identifier that may define (:=) or reuse (=) a
// variable of the function analyzed; nil for a package variable or one a
// function literal captures, which outlive the function.
func (fa *fnAnalyzer) localVar(id *ast.Ident) *types.Var {
	v, ok := fa.pass.TypesInfo.Defs[id].(*types.Var)
	if !ok {
		v, _ = fa.pass.TypesInfo.Uses[id].(*types.Var)
	}
	if v == nil || v.Pos() < fa.fn.Pos() || v.Pos() >= fa.fn.End() {
		return nil
	}
	return v
}

// roleOf returns the //stash: role of a call's callee, or "".
func (fa *fnAnalyzer) roleOf(call *ast.CallExpr) string {
	return fa.roles[analysis.Callee(fa.pass.TypesInfo, call)]
}

// callName renders a call target for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}
