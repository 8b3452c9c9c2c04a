// Package ctxcheck implements the stashvet analyzer for context propagation
// and cancellability in the concurrent service layer (internal/runner,
// internal/stashd). The service layer talks to clients that disconnect and
// servers that drain, so nothing in it may block unconditionally:
//
//   - every blocking operation — channel send, channel receive, range over a
//     channel, a select, sync.WaitGroup.Wait, sync.Cond.Wait — must either be
//     cancellable (a select with a ctx.Done() case or a default) or carry a
//     //stash:blocking <reason> exemption, on the operation's line, the line
//     above, or the enclosing function's doc comment (covering the body);
//   - context.Context, when a function takes one, must be the first
//     parameter;
//   - context.Context must not be stored in a struct field; a deliberate
//     exception (the runner's job execution context) carries a
//     //stash:ignore ctxcheck <reason>.
//
// Statements inside `go func() { ... }` bodies are out of scope here: a
// spawned goroutine's sends are the chanleak analyzer's domain, and its
// lifetime is its spawner's contract. The analysis is syntactic and
// intraprocedural — a call to a function that blocks internally is that
// function's finding, not the caller's.
package ctxcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the context-propagation check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcheck",
	Doc: "require every blocking operation in the service layer to be cancellable " +
		"(select on ctx.Done()) or annotated //stash:blocking, context.Context first " +
		"in parameter lists and never stored in structs",
	AppliesTo: AppliesTo,
	Run:       run,
}

// AppliesTo scopes the analyzer to the service layer.
func AppliesTo(pkgPath string) bool { return analysis.ServiceLayer.Contains(pkgPath) }

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		dirs := collectBlocking(pass, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkParams(pass, fd)
			if fd.Body == nil || analysis.HasDirective(fd.Doc, analysis.DirectiveBlocking) {
				continue
			}
			c := &checker{pass: pass, dirs: dirs}
			c.walk(fd.Body)
		}
		checkContextFields(pass, file)
		dirs.reportUnused(pass)
	}
	return nil
}

// blockingDirective is one line-level //stash:blocking exemption.
type blockingDirective struct {
	pos  token.Pos
	used bool
}

type blockingTable struct {
	byLine map[int]*blockingDirective
}

// collectBlocking indexes a file's line-level //stash:blocking directives,
// reporting malformed ones (no reason). Directives inside function doc
// comments are function-level and handled by the caller, not indexed here.
func collectBlocking(pass *analysis.Pass, file *ast.File) *blockingTable {
	inDoc := map[*ast.CommentGroup]bool{}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			inDoc[fd.Doc] = true
		}
	}
	t := &blockingTable{byLine: map[int]*blockingDirective{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, ok := analysis.ParseDirective(c.Text)
			if !ok || d.Verb != analysis.DirectiveBlocking {
				continue
			}
			if d.Args == "" {
				pass.Reportf(c.Pos(), "malformed //stash:blocking: the reason is mandatory")
				continue
			}
			if inDoc[cg] {
				continue
			}
			t.byLine[pass.Fset.Position(c.Pos()).Line] = &blockingDirective{pos: c.Pos()}
		}
	}
	return t
}

// exempts marks and reports whether a blocking op at pos is covered by a
// directive on its line or the line above.
func (t *blockingTable) exempts(pass *analysis.Pass, pos token.Pos) bool {
	line := pass.Fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if d := t.byLine[l]; d != nil {
			d.used = true
			return true
		}
	}
	return false
}

// reportUnused flags directives that exempted nothing — the blocking op was
// fixed and the escape hatch should go.
func (t *blockingTable) reportUnused(pass *analysis.Pass) {
	for _, d := range t.byLine {
		if !d.used {
			pass.Reportf(d.pos, "unused //stash:blocking: nothing blocks on this or the next line; remove it")
		}
	}
}

// checkParams enforces context.Context as the first parameter.
func checkParams(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	idx := 0
	for _, fld := range fd.Type.Params.List {
		if idx > 0 && isContextType(pass.TypesInfo.Types[fld.Type].Type) {
			pass.Reportf(fld.Pos(), "context.Context must be the first parameter")
		}
		n := len(fld.Names)
		if n == 0 {
			n = 1
		}
		idx += n
	}
}

// checkContextFields flags context.Context struct fields; the runner's
// deliberate exception is suppressed with //stash:ignore ctxcheck.
func checkContextFields(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			if !isContextType(pass.TypesInfo.Types[fld.Type].Type) {
				continue
			}
			pass.Reportf(fld.Pos(), "context.Context stored in a struct: contexts are call-scoped; "+
				"pass one per operation (//stash:ignore ctxcheck <reason> if the field is deliberate)")
		}
		return true
	})
}

func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// checker walks one function body for blocking operations.
type checker struct {
	pass *analysis.Pass
	dirs *blockingTable
}

func (c *checker) flag(pos token.Pos, what string) {
	if c.dirs.exempts(c.pass, pos) {
		return
	}
	c.pass.Reportf(pos, "blocking %s with no cancellation path: select on ctx.Done(), or annotate //stash:blocking <reason>", what)
}

func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned body blocks on the goroutine's own time; its sends
			// are chanleak's domain. Arguments still evaluate here.
			for _, a := range n.Call.Args {
				c.walk(a)
			}
			if _, ok := n.Call.Fun.(*ast.FuncLit); !ok {
				c.walk(n.Call.Fun)
			}
			return false
		case *ast.SelectStmt:
			c.selectStmt(n)
			return false
		case *ast.SendStmt:
			c.flag(n.Pos(), "channel send")
			c.walk(n.Chan)
			c.walk(n.Value)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.flag(n.Pos(), "channel receive")
				c.walk(n.X)
				return false
			}
		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					c.flag(n.Pos(), "range over a channel")
				}
			}
		case *ast.CallExpr:
			if name := waitCallName(c.pass.TypesInfo, n); name != "" {
				c.flag(n.Pos(), name)
			}
		}
		return true
	})
}

// selectStmt checks a select has an escape (default or ctx.Done case), then
// walks the case bodies; the comm operations themselves are the select's.
func (c *checker) selectStmt(st *ast.SelectStmt) {
	escaped := false
	for _, cl := range st.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil || c.commIsDone(cc.Comm) {
			escaped = true
		}
	}
	if !escaped {
		c.flag(st.Pos(), "select with no ctx.Done() case or default")
	}
	for _, cl := range st.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok {
			for _, s := range cc.Body {
				c.walk(s)
			}
		}
	}
}

// commIsDone reports whether a select comm receives from a
// context.Context.Done() channel.
func (c *checker) commIsDone(comm ast.Stmt) bool {
	var x ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		x = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			x = s.Rhs[0]
		}
	}
	ue, ok := ast.Unparen(x).(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return false
	}
	call, ok := ast.Unparen(ue.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// waitCallName recognizes sync's blocking Wait methods.
func waitCallName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Wait" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return "sync." + n.Obj().Name() + ".Wait"
	}
	return "sync Wait"
}
