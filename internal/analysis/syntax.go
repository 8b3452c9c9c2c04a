package analysis

import (
	"go/ast"
	"go/types"
)

// BuiltinName returns the name of the builtin fun resolves to ("panic",
// "make", "append", ...), or "" when it is not a builtin.
func BuiltinName(info *types.Info, fun ast.Expr) string {
	if id, ok := ast.Unparen(fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// Callee returns the function or method a call names statically,
// normalized to its generic origin; nil for calls of function values,
// builtins and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn, ok := info.Uses[CalleeIdent(call)].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// CalleeIdent returns the identifier a call names its callee by: f in f()
// and in x.f(); nil when the callee is any other expression.
func CalleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// Render prints a chain of identifiers, field selections and dereferences
// by its lexical shape, the identity analyzers give locks, channels and
// ranged collections: r.mu, memo, and p.ch for (*p).ch. Any other
// expression renders as "".
func Render(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if b := Render(x.X); b != "" {
			return b + "." + x.Sel.Name
		}
	case *ast.StarExpr:
		return Render(x.X)
	}
	return ""
}

// Operands calls visit on each expression x evaluates directly, in
// evaluation order: the operands of a selector, index, slice, star, unary,
// binary, paren or type assertion, a call's function and arguments, and a
// composite literal's element values (not its keys). A function literal
// has none: its body runs later.
func Operands(x ast.Expr, visit func(ast.Expr)) {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		visit(x.X)
	case *ast.ParenExpr:
		visit(x.X)
	case *ast.StarExpr:
		visit(x.X)
	case *ast.UnaryExpr:
		visit(x.X)
	case *ast.TypeAssertExpr:
		visit(x.X)
	case *ast.BinaryExpr:
		visit(x.X)
		visit(x.Y)
	case *ast.IndexExpr:
		visit(x.X)
		visit(x.Index)
	case *ast.IndexListExpr:
		visit(x.X)
		for _, i := range x.Indices {
			visit(i)
		}
	case *ast.SliceExpr:
		for _, y := range []ast.Expr{x.X, x.Low, x.High, x.Max} {
			if y != nil {
				visit(y)
			}
		}
	case *ast.CallExpr:
		visit(x.Fun)
		for _, a := range x.Args {
			visit(a)
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			visit(ElemValue(elt))
		}
	case *ast.KeyValueExpr:
		visit(x.Value)
	}
}

// ElemValue returns the value of a composite literal element, without its
// key.
func ElemValue(elt ast.Expr) ast.Expr {
	if kv, ok := elt.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return elt
}
