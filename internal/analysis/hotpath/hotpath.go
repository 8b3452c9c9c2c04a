// Package hotpath implements the stashvet analyzer enforcing zero-allocation
// hot paths. Functions annotated //stash:hotpath — the L1 and directory-bank
// handlers, the scheduler wheel, trace replay — run once per simulated
// message; a single heap allocation there multiplies into millions per run
// and shows up directly in bench-protocol's allocs/op gate. The analyzer
// rejects the constructs the compiler lowers to runtime allocation:
//
//   - make, new, closures (func literals), method values, defer
//   - slice and map literals, &composite literals
//   - map writes (growth allocates; iteration is determinism's business)
//   - append, except the x.f = append(x.f, ...) self-append idiom used to
//     warm object pools (growth is amortized away by reuse)
//   - converting non-pointer-shaped values to interfaces (boxing)
//
// Arguments of panic(...) are exempt: a panicking simulator is already off
// the hot path, and the fmt.Sprintf there is worth the diagnostics.
//
// The check is intraprocedural: calls into unannotated helpers are not
// followed. Annotate the helper too if it is on the same path.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hot-path zero-allocation check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "reject heap-allocating constructs in functions annotated //stash:hotpath",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.HasDirective(fd.Doc, analysis.DirectiveHotpath) {
				continue
			}
			w := &walker{pass: pass, fname: fd.Name.Name}
			w.prescan(fd.Body)
			ast.Inspect(fd.Body, w.visit)
		}
	}
	return nil
}

type walker struct {
	pass  *analysis.Pass
	fname string
	// poolAppends holds append calls of the shape x.f = append(x.f, ...):
	// growth of a pool-backed field is amortized to zero by reuse.
	poolAppends map[*ast.CallExpr]bool
	// calledFuns holds expressions in call position, so f.method() is not
	// mistaken for a method-value allocation.
	calledFuns map[ast.Expr]bool
}

// prescan indexes self-appends and call positions before the main walk.
func (w *walker) prescan(body *ast.BlockStmt) {
	w.poolAppends = map[*ast.CallExpr]bool{}
	w.calledFuns = map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.calledFuns[n.Fun] = true
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && analysis.BuiltinName(w.pass.TypesInfo, call.Fun) == "append" &&
					len(call.Args) > 0 && sameExpr(n.Lhs[0], call.Args[0]) {
					w.poolAppends[call] = true
				}
			}
		}
		return true
	})
}

func (w *walker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		return w.call(n)
	case *ast.FuncLit:
		w.pass.Reportf(n.Pos(), "%s is //stash:hotpath: closure allocates; bind it once at construction time", w.fname)
		return false
	case *ast.DeferStmt:
		w.pass.Reportf(n.Pos(), "%s is //stash:hotpath: defer has per-call overhead; restructure with explicit cleanup", w.fname)
	case *ast.GoStmt:
		w.pass.Reportf(n.Pos(), "%s is //stash:hotpath: go statement allocates a goroutine", w.fname)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				w.pass.Reportf(n.Pos(), "%s is //stash:hotpath: &composite literal allocates; draw from a pool", w.fname)
			}
		}
	case *ast.CompositeLit:
		if tv, ok := w.pass.TypesInfo.Types[n]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				w.pass.Reportf(n.Pos(), "%s is //stash:hotpath: slice literal allocates", w.fname)
			case *types.Map:
				w.pass.Reportf(n.Pos(), "%s is //stash:hotpath: map literal allocates", w.fname)
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			w.mapWrite(lhs)
		}
		w.boxingAssign(n)
	case *ast.IncDecStmt:
		w.mapWrite(n.X)
	case *ast.SelectorExpr:
		if !w.calledFuns[n] {
			if sel, ok := w.pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal {
				w.pass.Reportf(n.Pos(), "%s is //stash:hotpath: method value allocates; call it directly or bind it once", w.fname)
			}
		}
	}
	return true
}

// call checks one call expression and reports allocating builtins and
// interface-boxing arguments. It returns false (skip subtree) for panic,
// whose arguments are cold.
func (w *walker) call(call *ast.CallExpr) bool {
	builtin := analysis.BuiltinName(w.pass.TypesInfo, call.Fun)
	switch builtin {
	case "panic":
		return false
	case "make":
		w.pass.Reportf(call.Pos(), "%s is //stash:hotpath: make allocates; preallocate at construction time", w.fname)
	case "new":
		w.pass.Reportf(call.Pos(), "%s is //stash:hotpath: new allocates; draw from a pool", w.fname)
	case "append":
		if !w.poolAppends[call] {
			w.pass.Reportf(call.Pos(), "%s is //stash:hotpath: append may grow the heap; only the x.f = append(x.f, ...) pool-warming idiom is exempt", w.fname)
		}
	}
	if builtin != "" {
		return true
	}
	// Type conversions: T(x) boxes when T is an interface.
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			w.boxing(call.Args[0], tv.Type)
		}
		return true
	}
	// Ordinary calls: any argument landing in an interface parameter boxes.
	tv, ok := w.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return true
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return true
	}
	for i, arg := range call.Args {
		w.boxing(arg, paramType(sig, i, call.Ellipsis.IsValid()))
	}
	return true
}

// paramType resolves the type of argument i, unwrapping the variadic slice.
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	last := params.Len() - 1
	if sig.Variadic() && i >= last {
		if ellipsis {
			return params.At(last).Type()
		}
		if sl, ok := params.At(last).Type().(*types.Slice); ok {
			return sl.Elem()
		}
	}
	if i > last {
		return nil
	}
	return params.At(i).Type()
}

// boxing reports arg if assigning it to target converts a non-pointer-shaped
// concrete value to an interface — a heap allocation in the general case.
func (w *walker) boxing(arg ast.Expr, target types.Type) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := w.pass.TypesInfo.Types[arg]
	if !ok || tv.IsNil() {
		return
	}
	at := tv.Type
	if _, ok := at.Underlying().(*types.Interface); ok {
		return // interface-to-interface carries the existing box
	}
	if pointerShaped(at) {
		return
	}
	w.pass.Reportf(arg.Pos(), "%s is //stash:hotpath: converting %s to %s boxes on the heap", w.fname, at, target)
}

// boxingAssign applies the boxing rule to plain assignments whose targets
// are interface-typed.
func (w *walker) boxingAssign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		if tv, ok := w.pass.TypesInfo.Types[lhs]; ok {
			w.boxing(n.Rhs[i], tv.Type)
		}
	}
}

// mapWrite reports assignments through a map index: insertion can trigger
// bucket growth.
func (w *walker) mapWrite(lhs ast.Expr) {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	if tv, ok := w.pass.TypesInfo.Types[idx.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			w.pass.Reportf(lhs.Pos(), "%s is //stash:hotpath: map write may allocate; use a preallocated table (see blockTable)", w.fname)
		}
	}
}

// pointerShaped reports whether values of t fit in an interface word
// without allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// sameExpr reports whether two expressions are structurally identical
// chains of identifiers and field selections (x, x.f, x.f.g).
func sameExpr(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && sameExpr(a.X, b.X)
	case *ast.ParenExpr:
		return sameExpr(a.X, b)
	}
	return false
}
