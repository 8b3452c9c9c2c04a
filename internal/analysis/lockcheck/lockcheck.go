// Package lockcheck implements the stashvet analyzer for lock discipline in
// the concurrent service layer. Three //stash: directives declare the locking
// contract, and the analyzer checks every function against it with a
// flow-sensitive must-hold analysis:
//
//	//stash:guardedby <mutex>   on a struct field: the field may only be read
//	                            or written with the named mutex held. The
//	                            mutex is either a sibling field ("mu") or a
//	                            field of the owning type ("Runner.mu") for
//	                            values embedded in a larger structure whose
//	                            lock covers them (the runner's LRU cache).
//	//stash:locked <mutex>      on a function: callers must hold the mutex.
//	                            The body is checked with the lock assumed
//	                            held; every call site is checked to hold it.
//	//stash:lockorder A.f < B.f declares one edge of the mutex partial order:
//	                            B.f may be acquired while A.f is held, never
//	                            the reverse. Edges close transitively.
//
// Independently of the directives, every function is checked for mutex
// misuse: locking a mutex already held (self-deadlock), unlocking a mutex
// not held on every path (double unlock), and returning with a mutex still
// locked and no deferred unlock.
//
// Lock-free state follows one rule: every function-style sync/atomic use
// (atomic.AddInt64(&n, 1) and friends) is a finding, in every package.
// Typed atomics (atomic.Int64 and friends) make each access a method call,
// so a value cannot be written bare on one path and atomically on another;
// the function-style API allows exactly that mix.
//
// The analysis is intraprocedural and must-hold: analysis.WalkFunc supplies
// the control flow, and lock states join by intersection, so "held" means
// held on every path reaching the point. Returns, and reaching the closing
// brace, check for locks still held.
// Locks are named structurally ("r.mu", "j.mu"); where the mutex expression
// has a named owner type the qualified name ("Runner.mu") also participates,
// which is what lets a lock taken on one receiver satisfy a Type.field
// guard on a value it owns. Function literals (goroutine, defer and
// callback bodies) are analyzed as independent functions holding nothing —
// a goroutine never inherits its spawner's locks.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lock discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "enforce //stash:guardedby field access under the named mutex, unlock-on-every-path, " +
		"double-lock/double-unlock detection, //stash:locked call preconditions and the " +
		"declared //stash:lockorder partial order; typed atomics instead of function-style sync/atomic",
	Run: run,
}

// guardSpec names the mutex protecting a field or required by a function.
type guardSpec struct {
	raw      string // as written: "mu" or "Runner.mu"
	typeName string // "Runner" for the qualified form, "" for a sibling field
	field    string // "mu"
}

func parseGuard(raw string) guardSpec {
	if t, f, ok := strings.Cut(raw, "."); ok && t != "" && f != "" {
		return guardSpec{raw: raw, typeName: t, field: f}
	}
	return guardSpec{raw: raw, field: raw}
}

// facts are the directive tables collected across every loaded package, so a
// guarded field and its accessors may live in different packages.
type facts struct {
	guarded map[*types.Var]guardSpec
	locked  map[*types.Func]guardSpec
	less    map[string]map[string]bool // less[a][b]: a must be acquired before b
}

func run(pass *analysis.Pass) error {
	f := collect(pass)
	rep := analysis.NewReports(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeFunc(pass, f, rep, fd)
			}
		}
		checkAtomicFuncs(pass, file)
	}
	return nil
}

// checkAtomicFuncs reports every use of a package-level sync/atomic
// function, called or not.
func checkAtomicFuncs(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(sel.Pos(), "function-style atomic.%s: use a typed atomic (atomic.Int64 and friends) so no access can be bare", fn.Name())
		}
		return true
	})
}

// collect builds the directive tables from the whole universe. Malformed
// directives are reported only when they sit in the package under analysis,
// so each problem is reported exactly once per run.
func collect(pass *analysis.Pass) *facts {
	f := &facts{
		guarded: map[*types.Var]guardSpec{},
		locked:  map[*types.Func]guardSpec{},
		less:    map[string]map[string]bool{},
	}
	local := map[*ast.File]bool{}
	for _, file := range pass.Files {
		local[file] = true
	}
	for _, pi := range pass.Universe {
		for _, file := range pi.Files {
			collectFile(pass, f, pi, file, local[file])
		}
	}
	closeOrder(f.less)
	return f
}

func collectFile(pass *analysis.Pass, f *facts, pi *analysis.PackageInfo, file *ast.File, local bool) {
	// Guarded fields: //stash:guardedby on a struct field's doc or trailing
	// comment.
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
				if cg == nil {
					continue
				}
				for _, c := range cg.List {
					d, ok := analysis.ParseDirective(c.Text)
					if !ok || d.Verb != analysis.DirectiveGuardedBy {
						continue
					}
					if d.Args == "" {
						if local {
							pass.Reportf(c.Pos(), "malformed //stash:guardedby: want \"//stash:guardedby <mutex>\"")
						}
						continue
					}
					g := parseGuard(d.Args)
					for _, name := range fld.Names {
						if v, ok := pi.Info.Defs[name].(*types.Var); ok {
							f.guarded[v] = g
						}
					}
				}
			}
		}
		return true
	})

	// Locked functions: //stash:locked on a declaration's doc comment.
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			d, ok := analysis.ParseDirective(c.Text)
			if !ok || d.Verb != analysis.DirectiveLocked {
				continue
			}
			if d.Args == "" {
				if local {
					pass.Reportf(c.Pos(), "malformed //stash:locked: want \"//stash:locked <mutex>\"")
				}
				continue
			}
			if fn, ok := pi.Info.Defs[fd.Name].(*types.Func); ok {
				f.locked[fn] = parseGuard(d.Args)
			}
		}
	}

	// Lock order edges: //stash:lockorder anywhere in a file.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, ok := analysis.ParseDirective(c.Text)
			if !ok || d.Verb != analysis.DirectiveLockOrder {
				continue
			}
			before, after, ok := strings.Cut(d.Args, "<")
			before, after = strings.TrimSpace(before), strings.TrimSpace(after)
			if !ok || before == "" || after == "" {
				if local {
					pass.Reportf(c.Pos(), "malformed //stash:lockorder: want \"//stash:lockorder A.mu < B.mu\"")
				}
				continue
			}
			if f.less[before] == nil {
				f.less[before] = map[string]bool{}
			}
			f.less[before][after] = true
		}
	}
}

// closeOrder takes the transitive closure of the declared partial order.
func closeOrder(less map[string]map[string]bool) {
	for changed := true; changed; {
		changed = false
		for a, outs := range less {
			for b := range outs {
				for c := range less[b] {
					if !less[a][c] {
						less[a][c] = true
						changed = true
					}
				}
			}
		}
	}
}

// lockState is what the analysis knows about one held lock.
type lockState struct {
	qual     string // "Runner.mu" when the owner type is named, else ""
	deferred bool   // a deferred unlock is pending; held to function end
	seeded   bool   // assumed held from //stash:locked; expected at return
}

// lockEnv maps structural lock names ("r.mu") to their states.
type lockEnv map[string]lockState

func analyzeFunc(pass *analysis.Pass, f *facts, rep *analysis.Reports, fd *ast.FuncDecl) {
	fa := &fnAnalyzer{pass: pass, f: f, rep: rep, everHeld: map[string]bool{}}
	e := lockEnv{}
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if g, ok := f.locked[fn]; ok {
			fa.seed(e, fd, g)
		}
	}
	analysis.WalkFunc(pass.TypesInfo, fa, fd.Body, e)
}

// fnAnalyzer is the lock domain of one function: its states are must-hold
// lock sets joined by intersection.
type fnAnalyzer struct {
	pass *analysis.Pass
	f    *facts
	rep  *analysis.Reports
	// everHeld records locks this function locked at some point; in nested
	// function literals, "unlock without lock" is only reported for those,
	// since a closure may legitimately unlock a lock its enclosing function
	// holds (a deferred-unlock closure).
	everHeld map[string]bool
	nested   bool
}

func (fa *fnAnalyzer) Clone(e lockEnv) lockEnv {
	out := make(lockEnv, len(e))
	for k, s := range e {
		out[k] = s
	}
	return out
}

// Join narrows dst to the locks held in both dst and src, returning
// whether dst changed.
func (fa *fnAnalyzer) Join(dst, src lockEnv) bool {
	changed := false
	for k, ds := range dst {
		ss, ok := src[k]
		if !ok {
			delete(dst, k)
			changed = true
			continue
		}
		if ds.deferred && !ss.deferred {
			ds.deferred = false
			dst[k] = ds
			changed = true
		}
	}
	return changed
}

// Literal analyzes a function literal (a goroutine, defer or callback body)
// as a function that holds nothing when it starts.
func (fa *fnAnalyzer) Literal(*ast.FuncLit) (analysis.Flow[lockEnv], lockEnv) {
	return &fnAnalyzer{pass: fa.pass, f: fa.f, rep: fa.rep, everHeld: map[string]bool{}, nested: true}, lockEnv{}
}

// Panic checks the panic's arguments, which may read guarded fields; held
// locks are not checked on a panicking path.
func (fa *fnAnalyzer) Panic(call *ast.CallExpr, e lockEnv) {
	for _, a := range call.Args {
		fa.Expr(a, e)
	}
}

// Return flags locks still held at a return with no deferred unlock.
func (fa *fnAnalyzer) Return(results []ast.Expr, pos token.Pos, e lockEnv) {
	for _, r := range results {
		fa.Expr(r, e)
	}
	var leaked []string
	for k, s := range e {
		if !s.deferred && !s.seeded {
			leaked = append(leaked, k)
		}
	}
	if len(leaked) == 0 {
		return
	}
	sort.Strings(leaked)
	fa.rep.Reportf(pos, "%s still locked at return: unlock on every path or defer the unlock", strings.Join(leaked, ", "))
}

// ScopeEnd is a no-op: locks are not scoped to blocks.
func (fa *fnAnalyzer) ScopeEnd(token.Pos, token.Pos, lockEnv) {}

func (fa *fnAnalyzer) Stmt(st ast.Stmt, e lockEnv) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		fa.Expr(st.X, e)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			fa.Expr(r, e)
		}
		for _, l := range st.Lhs {
			fa.Expr(l, e)
		}
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
	case *ast.DeferStmt:
		fa.deferStmt(st, e)
	case *ast.GoStmt:
		fa.Expr(st.Call.Fun, e)
		for _, a := range st.Call.Args {
			fa.Expr(a, e)
		}
	case *ast.SendStmt:
		fa.Expr(st.Chan, e)
		fa.Expr(st.Value, e)
	case *ast.IncDecStmt:
		fa.Expr(st.X, e)
	}
}

// seed marks the //stash:locked mutex as held on entry.
func (fa *fnAnalyzer) seed(e lockEnv, fd *ast.FuncDecl, g guardSpec) {
	if g.typeName != "" {
		e["<locked:"+g.raw+">"] = lockState{qual: g.raw, seeded: true}
		return
	}
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		fa.rep.Reportf(fd.Pos(), "//stash:locked %s on a function without a receiver: use the Type.%s form", g.raw, g.raw)
		return
	}
	qual := ""
	if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
		qual = tn + "." + g.field
	}
	names := fd.Recv.List[0].Names
	if len(names) == 1 && names[0].Name != "_" {
		key := names[0].Name + "." + g.field
		e[key] = lockState{qual: qual, seeded: true}
		fa.everHeld[key] = true
		return
	}
	if qual != "" {
		e["<locked:"+qual+">"] = lockState{qual: qual, seeded: true}
	}
}

// recvTypeName extracts the receiver's type name from its AST.
func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

func (fa *fnAnalyzer) deferStmt(st *ast.DeferStmt, e lockEnv) {
	call := st.Call
	if op, target := fa.lockOp(call); op == opUnlock {
		key, name := fa.keyOf(target)
		if s, ok := e[key]; ok {
			s.deferred = true
			e[key] = s
		} else if !fa.nested || fa.everHeld[key] {
			fa.rep.Reportf(call.Pos(), "deferred unlock of %s: it is not held on every path reaching here", name)
		}
		return
	} else if op == opLock {
		fa.rep.Reportf(call.Pos(), "deferred Lock: locking at function exit is almost certainly a typo for Unlock")
		return
	}
	fa.Expr(call.Fun, e)
	for _, a := range call.Args {
		fa.Expr(a, e)
	}
}

func (fa *fnAnalyzer) Expr(x ast.Expr, e lockEnv) {
	switch x := x.(type) {
	case *ast.CallExpr:
		fa.call(x, e)
		return
	case *ast.SelectorExpr:
		fa.checkGuarded(x, e)
	}
	// The keys of a composite literal are no operands: keyed fields
	// initialize an object no other goroutine can reach yet.
	analysis.Operands(x, func(y ast.Expr) { fa.Expr(y, e) })
}

func (fa *fnAnalyzer) call(x *ast.CallExpr, e lockEnv) {
	if op, target := fa.lockOp(x); op != opNone {
		key, name := fa.keyOf(target)
		switch op {
		case opLock:
			if _, held := e[key]; held {
				fa.rep.Reportf(x.Pos(), "%s is already locked here: locking again self-deadlocks", name)
			} else {
				fa.checkOrder(x.Pos(), fa.qualOf(target), e)
			}
			e[key] = lockState{qual: fa.qualOf(target)}
			fa.everHeld[key] = true
		case opUnlock:
			if s, held := e[key]; held {
				if s.deferred {
					fa.rep.Reportf(x.Pos(), "unlock of %s with a deferred unlock pending: it double-unlocks at return", name)
				}
				delete(e, key)
			} else if !fa.nested || fa.everHeld[key] {
				fa.rep.Reportf(x.Pos(), "unlock of %s: it is not held on every path reaching here (double unlock?)", name)
			}
		}
		fa.Expr(target, e)
		return
	}
	if fn := analysis.Callee(fa.pass.TypesInfo, x); fn != nil {
		if g, ok := fa.f.locked[fn]; ok {
			fa.checkLockedCall(x, fn, g, e)
		}
	}
	analysis.Operands(x, func(y ast.Expr) { fa.Expr(y, e) })
}

// checkOrder flags acquiring a lock that the declared partial order says
// must come before one already held.
func (fa *fnAnalyzer) checkOrder(pos token.Pos, qual string, e lockEnv) {
	if qual == "" || len(fa.f.less[qual]) == 0 {
		return
	}
	var held []string
	for _, s := range e {
		if s.qual != "" && fa.f.less[qual][s.qual] {
			held = append(held, s.qual)
		}
	}
	if len(held) == 0 {
		return
	}
	sort.Strings(held)
	fa.rep.Reportf(pos, "lock order violation: acquiring %s while holding %s (declared //stash:lockorder: %s first)",
		qual, strings.Join(held, ", "), qual)
}

// checkGuarded verifies that a read or write of a //stash:guardedby field
// happens with its mutex held.
func (fa *fnAnalyzer) checkGuarded(sel *ast.SelectorExpr, e lockEnv) {
	v, ok := fa.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	g, ok := fa.f.guarded[v]
	if !ok {
		return
	}
	if fa.guardHeld(g, sel.X, e) {
		return
	}
	fa.rep.Reportf(sel.Sel.Pos(), "%s is guarded by %s: access requires holding it", v.Name(), g.raw)
}

// guardHeld reports whether the guard of a field accessed through base is
// held in e.
func (fa *fnAnalyzer) guardHeld(g guardSpec, base ast.Expr, e lockEnv) bool {
	if g.typeName == "" {
		if b := analysis.Render(base); b != "" {
			if _, held := e[b+"."+g.field]; held {
				return true
			}
		}
		if tn := namedName(fa.typeOf(base)); tn != "" {
			want := tn + "." + g.field
			for _, s := range e {
				if s.qual == want {
					return true
				}
			}
		}
		return false
	}
	for _, s := range e {
		if s.qual == g.raw {
			return true
		}
	}
	return false
}

// checkLockedCall verifies a call to a //stash:locked function holds its
// required mutex: the guard of a field accessed through the call's
// receiver.
func (fa *fnAnalyzer) checkLockedCall(call *ast.CallExpr, fn *types.Func, g guardSpec, e lockEnv) {
	var recv ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv = sel.X
	}
	if !fa.guardHeld(g, recv, e) {
		fa.rep.Reportf(call.Pos(), "call to %s requires %s held (//stash:locked)", fn.Name(), g.raw)
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as a sync lock or unlock and returns the mutex
// expression. A value embedding sync.Mutex counts: memo.Lock() locks "memo".
func (fa *fnAnalyzer) lockOp(call *ast.CallExpr) (lockOpKind, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	fn, ok := fa.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, nil
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return opLock, sel.X
	case "Unlock", "RUnlock":
		return opUnlock, sel.X
	}
	return opNone, nil
}

// keyOf names a mutex expression: its structural rendering where possible,
// a position-unique placeholder otherwise (still catches double lock/unlock
// through the same spelling at the same site being impossible to confuse).
func (fa *fnAnalyzer) keyOf(x ast.Expr) (key, name string) {
	if s := analysis.Render(x); s != "" {
		return s, s
	}
	pos := fa.pass.Fset.Position(x.Pos())
	return pos.String(), "this mutex"
}

// qualOf names a mutex by its owner type: "Runner.mu" for r.mu where r is a
// *Runner. Empty when the owner type is unnamed (embedded-mutex globals).
func (fa *fnAnalyzer) qualOf(x ast.Expr) string {
	x = ast.Unparen(x)
	if sel, ok := x.(*ast.SelectorExpr); ok {
		if v, ok := fa.pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			if tn := namedName(fa.typeOf(sel.X)); tn != "" {
				return tn + "." + v.Name()
			}
		}
	}
	return ""
}

func (fa *fnAnalyzer) typeOf(x ast.Expr) types.Type {
	if tv, ok := fa.pass.TypesInfo.Types[x]; ok {
		return tv.Type
	}
	return nil
}

// namedName returns the name of a (possibly pointed-to) named type.
func namedName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
