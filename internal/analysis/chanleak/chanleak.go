// Package chanleak implements the stashvet analyzer for goroutine sends that
// can outlive their receiver — the sweep-streaming leak fixed in PR 2: a
// waiter goroutine sends a result line on an unbuffered channel, the HTTP
// stream loop returns early when the client disconnects, and the goroutine
// blocks on the send forever.
//
// For every channel created with make(chan ...) in a function and sent on by
// a goroutine spawned in the same function, the analyzer demands a static
// proof that every send completes:
//
//   - a buffer capacity that provably covers the sends: a constant capacity
//     covering the statically-counted sends across all spawned goroutines, or
//     a make(chan T, len(xs)) buffer paired with goroutines spawned by a
//     `for ... range xs` loop that each send at most once;
//   - or enough guaranteed receivers: unconditional receives in the spawning
//     function (not inside a select, branch, or loop) cover the sends the
//     buffer cannot absorb.
//
// Sends on the normal path and sends under an `if recover() != nil` guard in
// a deferred function are mutually exclusive, so the per-goroutine count is
// the maximum of the two, not the sum (the runner's runOnce pattern).
//
// Channels that are not made locally (parameters, struct fields, captures
// from an outer function) are out of scope: their contract belongs to their
// owner. Sends inside a select with a default or with at least two cases
// have an alternative and are not counted. Escapes that cannot be proven
// carry a //stash:ignore chanleak <reason>.
package chanleak

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the goroutine-send leak check.
var Analyzer = &analysis.Analyzer{
	Name: "chanleak",
	Doc: "require every goroutine send on a locally-made channel to be covered by " +
		"proven buffer capacity or a guaranteed receiver",
	AppliesTo: AppliesTo,
	Run:       run,
}

// AppliesTo scopes the analyzer to the service layer.
func AppliesTo(pkgPath string) bool { return analysis.ServiceLayer.Contains(pkgPath) }

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Every function literal is its own scope: channels it makes are
			// its to prove, channels it captures are its owner's.
			scopes := []*ast.BlockStmt{fd.Body}
			for len(scopes) > 0 {
				body := scopes[0]
				scopes = scopes[1:]
				sc := collectScope(pass, body)
				scopes = append(scopes, sc.nested...)
				sc.verdicts(pass)
			}
		}
	}
	return nil
}

type capKind int

const (
	capConst capKind = iota // constant capacity (0 for unbuffered)
	capLen                  // make(chan T, len(lenOf))
	capOther                // unprovable expression; channel skipped
)

type chanInfo struct {
	key   string
	kind  capKind
	n     int64  // capConst
	lenOf string // capLen: rendered len() argument
}

// spawn is one `go func() {...}()` directly in the scope, with the rendered
// range expressions of its enclosing loops (a plain for loop records "").
type spawn struct {
	lit   *ast.FuncLit
	loops []string
}

// scope holds one function body's channels, goroutine spawns, and
// unconditional receive credits.
type scope struct {
	pass   *analysis.Pass
	chans  map[string]*chanInfo
	order  []string
	spawns []*spawn
	recvs  map[string]int
	nested []*ast.BlockStmt
}

func collectScope(pass *analysis.Pass, body *ast.BlockStmt) *scope {
	sc := &scope{pass: pass, chans: map[string]*chanInfo{}, recvs: map[string]int{}}
	for _, s := range body.List {
		sc.stmt(s, nil, false)
	}
	return sc
}

// stmt walks one statement. loops is the stack of enclosing range
// expressions; cond marks positions that may execute zero times, where a
// receive guarantees nothing.
func (sc *scope) stmt(s ast.Stmt, loops []string, cond bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, t := range s.List {
			sc.stmt(t, loops, cond)
		}
	case *ast.LabeledStmt:
		sc.stmt(s.Stmt, loops, cond)
	case *ast.ExprStmt:
		sc.expr(s.X, cond)
	case *ast.AssignStmt:
		sc.makes(s.Lhs, s.Rhs)
		for _, e := range s.Rhs {
			sc.expr(e, cond)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					sc.makes(lhs, vs.Values)
					for _, e := range vs.Values {
						sc.expr(e, cond)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			sc.expr(e, cond)
		}
	case *ast.SendStmt:
		// A send by the scope's own goroutine blocks the scope itself;
		// that is ctxcheck's concern, not a leak of a spawned goroutine.
		sc.expr(s.Chan, cond)
		sc.expr(s.Value, cond)
	case *ast.IncDecStmt:
		sc.expr(s.X, cond)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.spawns = append(sc.spawns, &spawn{lit: lit, loops: append([]string(nil), loops...)})
			sc.nested = append(sc.nested, lit.Body)
		} else {
			sc.expr(s.Call.Fun, cond)
		}
		for _, a := range s.Call.Args {
			sc.expr(a, cond)
		}
	case *ast.DeferStmt:
		// A deferred literal runs exactly once on return: its receives keep
		// their guarantee, so inline it rather than treating it as nested.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			for _, t := range lit.Body.List {
				sc.stmt(t, loops, cond)
			}
		} else {
			sc.expr(s.Call.Fun, cond)
		}
		for _, a := range s.Call.Args {
			sc.expr(a, cond)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			sc.stmt(s.Init, loops, cond)
		}
		sc.expr(s.Cond, cond)
		sc.stmt(s.Body, loops, true)
		if s.Else != nil {
			sc.stmt(s.Else, loops, true)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.stmt(s.Init, loops, cond)
		}
		sc.stmt(s.Body, append(loops, ""), true)
	case *ast.RangeStmt:
		sc.expr(s.X, cond)
		sc.stmt(s.Body, append(loops, analysis.Render(s.X)), true)
	case *ast.SelectStmt:
		// Comm clauses are alternatives; nothing in a select earns a
		// receive credit.
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				for _, t := range cc.Body {
					sc.stmt(t, loops, true)
				}
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			sc.stmt(s.Init, loops, cond)
		}
		if s.Tag != nil {
			sc.expr(s.Tag, cond)
		}
		sc.caseBodies(s.Body, loops)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			sc.stmt(s.Init, loops, cond)
		}
		sc.caseBodies(s.Body, loops)
	}
}

func (sc *scope) caseBodies(body *ast.BlockStmt, loops []string) {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			for _, t := range cc.Body {
				sc.stmt(t, loops, true)
			}
		}
	}
}

// expr scans an expression for unconditional receives and nested function
// literals (which become their own scopes).
func (sc *scope) expr(e ast.Expr, cond bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sc.nested = append(sc.nested, n.Body)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !cond {
				sc.recvs[analysis.Render(n.X)]++
			}
		}
		return true
	})
}

// makes records channels created by `ch := make(chan T[, cap])`.
func (sc *scope) makes(lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, r := range rhs {
		call, ok := r.(*ast.CallExpr)
		if !ok || analysis.BuiltinName(sc.pass.TypesInfo, call.Fun) != "make" {
			continue
		}
		if t := sc.pass.TypesInfo.Types[call].Type; t == nil {
			continue
		} else if _, ok := t.Underlying().(*types.Chan); !ok {
			continue
		}
		id, ok := lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		ci := &chanInfo{key: id.Name}
		switch {
		case len(call.Args) < 2:
			ci.kind, ci.n = capConst, 0
		default:
			capArg := call.Args[1]
			if tv := sc.pass.TypesInfo.Types[capArg]; tv.Value != nil {
				n, ok := constant.Int64Val(tv.Value)
				if !ok {
					continue
				}
				ci.kind, ci.n = capConst, n
			} else if arg, ok := lenArg(sc.pass.TypesInfo, capArg); ok {
				ci.kind, ci.lenOf = capLen, arg
			} else {
				ci.kind = capOther
			}
		}
		if _, dup := sc.chans[ci.key]; !dup {
			sc.chans[ci.key] = ci
			sc.order = append(sc.order, ci.key)
		}
	}
}

// lenArg matches len(X) for a renderable X and returns X rendered.
func lenArg(info *types.Info, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || analysis.BuiltinName(info, call.Fun) != "len" {
		return "", false
	}
	x := analysis.Render(call.Args[0])
	return x, x != ""
}

// sends is the per-goroutine send census for one channel.
type sends struct {
	normal []token.Pos // sends on the ordinary path
	once   []token.Pos // sends under an `if recover() != nil` guard
	looped []token.Pos // sends inside a loop: statically unbounded
}

func (s *sends) effective() int {
	return max(len(s.normal), len(s.once))
}

// countSends walks a spawned goroutine's body counting sends on key.
// Nested function literals and goroutines are separate scopes and skipped,
// except directly-deferred literals, which run on this goroutine.
func countSends(pass *analysis.Pass, body *ast.BlockStmt, key string) *sends {
	out := &sends{}
	var walk func(n ast.Node, inLoop, inPanic bool)
	walk = func(n ast.Node, inLoop, inPanic bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if analysis.Render(n.Chan) != key {
					return true
				}
				switch {
				case inLoop:
					out.looped = append(out.looped, n.Pos())
				case inPanic:
					out.once = append(out.once, n.Pos())
				default:
					out.normal = append(out.normal, n.Pos())
				}
				return true
			case *ast.ForStmt:
				if n.Init != nil {
					walk(n.Init, inLoop, inPanic)
				}
				walk(n.Body, true, inPanic)
				return false
			case *ast.RangeStmt:
				walk(n.Body, true, inPanic)
				return false
			case *ast.IfStmt:
				branch := inPanic || callsRecover(pass.TypesInfo, n.Init) || callsRecover(pass.TypesInfo, n.Cond)
				if n.Init != nil {
					walk(n.Init, inLoop, inPanic)
				}
				walk(n.Body, inLoop, branch)
				if n.Else != nil {
					walk(n.Else, inLoop, inPanic)
				}
				return false
			case *ast.SelectStmt:
				ncomm, hasDefault := 0, false
				for _, cl := range n.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok {
						if cc.Comm == nil {
							hasDefault = true
						} else {
							ncomm++
						}
					}
				}
				if hasDefault || ncomm >= 2 {
					return false // every comm has an alternative
				}
				return true // single-case select behaves like a bare op
			case *ast.DeferStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, inLoop, inPanic)
				}
				for _, a := range n.Call.Args {
					walk(a, inLoop, inPanic)
				}
				return false
			case *ast.GoStmt, *ast.FuncLit:
				return false // a different scope's contract
			}
			return true
		})
	}
	walk(body, false, false)
	return out
}

func callsRecover(info *types.Info, n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && analysis.BuiltinName(info, call.Fun) == "recover" {
			found = true
		}
		return !found
	})
	return found
}

// verdicts proves or reports every (channel, spawned goroutine) pair.
func (sc *scope) verdicts(pass *analysis.Pass) {
	for _, key := range sc.order {
		ci := sc.chans[key]
		if ci.kind == capOther {
			continue // capacity not statically known; owner's judgment
		}
		credit := sc.recvs[key]
		running := int64(0)
		symbolic := false // a loop-spawned goroutine already consumed the budget
		for _, sp := range sc.spawns {
			cs := countSends(pass, sp.lit.Body, key)
			for _, pos := range cs.looped {
				pass.Reportf(pos, "send on %s inside a loop in a spawned goroutine: no static bound covers it; "+
					"restructure or annotate //stash:ignore chanleak <reason>", key)
			}
			eff := cs.effective()
			if eff == 0 {
				continue
			}
			if ci.kind == capLen {
				if !(len(sp.loops) == 1 && sp.loops[0] == ci.lenOf && eff == 1) {
					sc.reportFirst(pass, cs, "send on %s: buffer is len(%s) but this goroutine is not spawned "+
						"exactly once per element of %s with a single send", key, ci.lenOf, ci.lenOf)
				}
				continue
			}
			// Constant capacity: sends across every spawn share the buffer
			// plus any guaranteed receivers.
			if len(sp.loops) > 0 {
				sc.reportFirst(pass, cs, "send on %s from a goroutine spawned per loop iteration: "+
					"capacity %d cannot be proven to cover an unknown number of iterations", key, ci.n)
				symbolic = true
				continue
			}
			budget := ci.n + int64(credit)
			for i, pos := range cs.normal {
				if symbolic || running+int64(i)+1 > budget {
					pass.Reportf(pos, "send on %s may block forever: capacity %d and %d guaranteed receive(s) "+
						"are exhausted (the sweep-leak pattern); grow the buffer or receive unconditionally",
						key, ci.n, credit)
				}
			}
			for i, pos := range cs.once {
				if symbolic || running+int64(i)+1 > budget {
					pass.Reportf(pos, "send on %s may block forever: capacity %d and %d guaranteed receive(s) "+
						"are exhausted (the sweep-leak pattern); grow the buffer or receive unconditionally",
						key, ci.n, credit)
				}
			}
			running += int64(eff)
		}
	}
}

// reportFirst anchors a per-goroutine diagnosis on its first send.
func (sc *scope) reportFirst(pass *analysis.Pass, cs *sends, format string, args ...any) {
	pos := token.NoPos
	for _, list := range [][]token.Pos{cs.normal, cs.once, cs.looped} {
		for _, p := range list {
			if pos == token.NoPos || p < pos {
				pos = p
			}
		}
	}
	if pos != token.NoPos {
		pass.Reportf(pos, format, args...)
	}
}
