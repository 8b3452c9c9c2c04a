package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Flow is the domain half of a flow-sensitive analysis of one function
// body: its state S and the transfer functions over it. WalkFunc supplies
// the other half, the control flow, so every flow analyzer (poolcheck,
// lockcheck) models branches, loops and jumps the same way.
//
// States are mutable; the walker clones one where paths fork and joins
// states where paths meet, and the transfer functions update their
// argument in place.
type Flow[S any] interface {
	// Clone returns an independent copy of s.
	Clone(s S) S
	// Join merges src into dst where two paths meet and reports whether dst
	// changed. It must be monotone, so that loop fixpoints are reached.
	Join(dst, src S) bool
	// Stmt applies a statement without control flow of its own: an
	// expression, assignment, declaration, increment, send, defer or go.
	Stmt(st ast.Stmt, s S)
	// Expr applies an expression the walker evaluates itself: an if or
	// loop condition, a switch tag or case value, a range operand.
	Expr(x ast.Expr, s S)
	// Panic applies a call of the panic builtin; no path continues past it.
	Panic(call *ast.CallExpr, s S)
	// Return applies a return with its results at pos: a return statement,
	// or the closing brace of a body whose end is reachable.
	Return(results []ast.Expr, pos token.Pos, s S)
	// ScopeEnd applies a path leaving the source range [lo, hi): the block,
	// clause or statement it reached the end of, or the statements a
	// break, continue or fallthrough leaves.
	ScopeEnd(lo, hi token.Pos, s S)
	// Literal returns the flow and entry state for a function literal in
	// the body, which the walker analyzes as a separate function.
	Literal(lit *ast.FuncLit) (Flow[S], S)
}

// WalkFunc runs f over a function body from its entry state, then over
// every function literal in the body as a separate function. The rules:
//
//   - if/else joins its branches; a switch or type switch joins its
//     clauses, plus the incoming state when it has no default; a select
//     joins its clauses only. A statement ends the path when none of its
//     branches continues.
//   - a loop's head state is the fixpoint of its entry state, the state at
//     the end of each pass through the body (after the post statement)
//     and its continue states. A for with a condition and any range exit
//     with the head state plus their break states; a for without a
//     condition exits only by break, and ends the path without one.
//   - break, continue and fallthrough carry their state to the statement
//     they name (the innermost one, or the labelled one) and end the
//     scopes they leave; fallthrough joins the next clause's entry.
//   - return and panic end the path, as does goto, unchecked.
func WalkFunc[S any](info *types.Info, f Flow[S], body *ast.BlockStmt, entry S) {
	w := &walker[S]{info: info, f: f}
	if s, live := w.stmt(body, entry); live {
		f.Return(nil, body.Rbrace, s)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if ok {
			lf, ls := f.Literal(lit)
			WalkFunc(info, lf, lit.Body, ls)
		}
		return !ok
	})
}

type walker[S any] struct {
	info *types.Info
	f    Flow[S]
	// label names the statement stmt is about to walk, set by its
	// enclosing LabeledStmt.
	label string
	// targets are the enclosing statements a break, continue or
	// fallthrough can reach, innermost last.
	targets []*target[S]
}

// target is an enclosing for, range, switch, type switch or select and the
// states its jumps carry to it.
type target[S any] struct {
	stmt  ast.Stmt
	label string
	body  *ast.BlockStmt // a loop's body, left by continue; nil otherwise
	brk   paths[S]
	cont  paths[S]
	fall  paths[S]
}

// paths is the join of the states reaching one point; live is false while
// no path reaches it.
type paths[S any] struct {
	s    S
	live bool
}

// add joins s into p when s is live, taking s over rather than copying it.
func (w *walker[S]) add(p *paths[S], s S, live bool) {
	switch {
	case !live:
	case p.live:
		w.f.Join(p.s, s)
	default:
		p.s, p.live = s, true
	}
}

// leave ends the scope of n on the paths continuing past it.
func (w *walker[S]) leave(n ast.Node, p paths[S]) (S, bool) {
	if p.live {
		w.f.ScopeEnd(n.Pos(), n.End(), p.s)
	}
	return p.s, p.live
}

// stmt walks st from s, which it may update, and returns the state after
// it; live is false when no path continues past st.
func (w *walker[S]) stmt(st ast.Stmt, s S) (S, bool) {
	label := w.label
	w.label = ""
	switch st := st.(type) {
	case *ast.BlockStmt:
		return w.block(st, st.List, s)
	case *ast.LabeledStmt:
		w.label = st.Label.Name
		return w.stmt(st.Stmt, s)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && BuiltinName(w.info, call.Fun) == "panic" {
			w.f.Panic(call, s)
			return s, false
		}
		w.f.Stmt(st, s)
	case *ast.ReturnStmt:
		w.f.Return(st.Results, st.Pos(), s)
		return s, false
	case *ast.BranchStmt:
		w.branch(st, s)
		return s, false
	case *ast.IfStmt:
		return w.ifStmt(st, s)
	case *ast.ForStmt:
		if st.Init != nil {
			s, _ = w.stmt(st.Init, s)
		}
		return w.loop(st, label, st.Body, st.Cond, st.Post, s)
	case *ast.RangeStmt:
		w.f.Expr(st.X, s)
		return w.loop(st, label, st.Body, nil, nil, s)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s, _ = w.stmt(st.Init, s)
		}
		if st.Tag != nil {
			w.f.Expr(st.Tag, s)
		}
		return w.clauses(st, label, st.Body, s)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s, _ = w.stmt(st.Init, s)
		}
		s, _ = w.stmt(st.Assign, s)
		return w.clauses(st, label, st.Body, s)
	case *ast.SelectStmt:
		return w.clauses(st, label, st.Body, s)
	case *ast.EmptyStmt:
	default:
		w.f.Stmt(st, s)
	}
	return s, true
}

// block walks a statement list and ends the scope of n, the block or
// clause holding it, when its end is reached.
func (w *walker[S]) block(n ast.Node, list []ast.Stmt, s S) (S, bool) {
	for _, st := range list {
		var live bool
		if s, live = w.stmt(st, s); !live {
			return s, false
		}
	}
	return w.leave(n, paths[S]{s, true})
}

func (w *walker[S]) ifStmt(st *ast.IfStmt, s S) (S, bool) {
	if st.Init != nil {
		s, _ = w.stmt(st.Init, s)
	}
	w.f.Expr(st.Cond, s)
	var out paths[S]
	then, live := w.stmt(st.Body, w.f.Clone(s))
	w.add(&out, then, live)
	live = true
	if st.Else != nil {
		s, live = w.stmt(st.Else, s)
	}
	w.add(&out, s, live)
	return w.leave(st, out)
}

// loop walks a for or range statement whose header has been applied to
// head, the entry state.
func (w *walker[S]) loop(st ast.Stmt, label string, body *ast.BlockStmt, cond ast.Expr, post ast.Stmt, head S) (S, bool) {
	_, ranges := st.(*ast.RangeStmt)
	t := w.push(st, label, body)
	for {
		top := w.f.Clone(head)
		if cond != nil {
			w.f.Expr(cond, top)
		}
		t.brk, t.cont = paths[S]{}, paths[S]{}
		end, live := w.stmt(body, w.f.Clone(top))
		w.add(&t.cont, end, live)
		changed := false
		if t.cont.live {
			next := t.cont.s
			if post != nil {
				next, _ = w.stmt(post, next)
			}
			changed = w.f.Join(head, next)
		}
		if changed {
			continue
		}
		w.targets = w.targets[:len(w.targets)-1]
		exit := t.brk
		if ranges || cond != nil {
			w.add(&exit, top, true)
		}
		return w.leave(st, exit)
	}
}

// clauses walks the clauses of a switch, type switch or select whose
// header has been applied to s. Each clause starts from a copy of s.
func (w *walker[S]) clauses(st ast.Stmt, label string, body *ast.BlockStmt, s S) (S, bool) {
	_, isSelect := st.(*ast.SelectStmt)
	noMatch := !isSelect // a switch without a default may match no case
	t := w.push(st, label, nil)
	var out paths[S]
	for _, cl := range body.List {
		c := w.f.Clone(s)
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			noMatch = noMatch && cl.List != nil
			for _, x := range cl.List {
				w.f.Expr(x, c)
			}
			list = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				c, _ = w.stmt(cl.Comm, c)
			}
			list = cl.Body
		}
		if t.fall.live {
			w.f.Join(c, t.fall.s)
			t.fall = paths[S]{}
		}
		end, live := w.block(cl, list, c)
		w.add(&out, end, live)
		if t.fall.live {
			w.f.ScopeEnd(cl.Pos(), cl.End(), t.fall.s)
		}
	}
	w.targets = w.targets[:len(w.targets)-1]
	if noMatch {
		w.add(&out, s, true)
	}
	w.add(&out, t.brk.s, t.brk.live)
	return w.leave(st, out)
}

func (w *walker[S]) push(st ast.Stmt, label string, body *ast.BlockStmt) *target[S] {
	t := &target[S]{stmt: st, label: label, body: body}
	w.targets = append(w.targets, t)
	return t
}

// branch carries s, a path ending in a break, continue or fallthrough, to
// its target statement.
func (w *walker[S]) branch(st *ast.BranchStmt, s S) {
	if st.Tok == token.GOTO {
		return
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		if st.Label != nil && t.label != st.Label.Name {
			continue
		}
		switch st.Tok {
		case token.BREAK:
			w.f.ScopeEnd(t.stmt.Pos(), t.stmt.End(), s)
			w.add(&t.brk, s, true)
		case token.CONTINUE:
			if t.body == nil {
				continue // a switch or select inside the loop
			}
			w.f.ScopeEnd(t.body.Pos(), t.body.End(), s)
			w.add(&t.cont, s, true)
		case token.FALLTHROUGH:
			w.add(&t.fall, s, true)
		}
		return
	}
}

// Reports delivers a pass's diagnostics at most once per position: a flow
// walk revisits statements in loop fixpoints and on paths that join.
type Reports struct {
	pass *Pass
	seen map[token.Pos]bool
}

// NewReports returns an empty report set for pass.
func NewReports(pass *Pass) *Reports {
	return &Reports{pass: pass, seen: map[token.Pos]bool{}}
}

// Reportf reports a formatted diagnostic at pos unless one was reported
// there already.
func (r *Reports) Reportf(pos token.Pos, format string, args ...any) {
	if r.seen[pos] {
		return
	}
	r.seen[pos] = true
	r.pass.Reportf(pos, format, args...)
}
