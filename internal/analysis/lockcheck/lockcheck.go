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
// The analysis is intraprocedural and must-hold: branch states merge by
// intersection, so "held" means held on every path reaching the point.
// Locks are named structurally ("r.mu", "j.mu"); where the mutex expression
// has a named owner type the qualified name ("Runner.mu") also participates,
// which is what lets a lock taken on one receiver satisfy a Type.field
// guard on a value it owns. Goroutine bodies are analyzed as independent
// functions holding nothing — a goroutine never inherits its spawner's
// locks.
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
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeFunc(pass, f, fd)
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

// lockEnv maps structural lock names ("r.mu") to their states. Copied at
// branches, merged by intersection (must-hold).
type lockEnv map[string]lockState

func (e lockEnv) clone() lockEnv {
	out := make(lockEnv, len(e))
	for k, s := range e {
		out[k] = s
	}
	return out
}

// intersectInto narrows dst to the locks held in both dst and src, returning
// whether dst changed.
func intersectInto(dst, src lockEnv) bool {
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

func replace(dst, src lockEnv) {
	for k := range dst {
		delete(dst, k)
	}
	for k, s := range src {
		dst[k] = s
	}
}

func analyzeFunc(pass *analysis.Pass, f *facts, fd *ast.FuncDecl) {
	fa := &fnAnalyzer{
		pass:     pass,
		f:        f,
		reported: map[token.Pos]bool{},
		everHeld: map[string]bool{},
	}
	e := lockEnv{}
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if g, ok := f.locked[fn]; ok {
			fa.seed(e, fd, g)
		}
	}
	if !fa.block(fd.Body, e) {
		fa.atReturn(e, fd.Body.Rbrace)
	}
	// Function literals run later (goroutines, defers, callbacks) and hold
	// nothing when they start; each is an independent function.
	for i := 0; i < len(fa.funcLits); i++ {
		lit := fa.funcLits[i]
		sub := &fnAnalyzer{
			pass:     pass,
			f:        f,
			reported: fa.reported,
			everHeld: map[string]bool{},
			nested:   true,
		}
		le := lockEnv{}
		if !sub.block(lit.Body, le) {
			sub.atReturn(le, lit.Body.Rbrace)
		}
		fa.funcLits = append(fa.funcLits, sub.funcLits...)
	}
}

type fnAnalyzer struct {
	pass     *analysis.Pass
	f        *facts
	reported map[token.Pos]bool
	// everHeld records locks this function locked at some point; in nested
	// function literals, "unlock without lock" is only reported for those,
	// since a closure may legitimately unlock a lock its enclosing function
	// holds (a deferred-unlock closure).
	everHeld map[string]bool
	nested   bool
	funcLits []*ast.FuncLit
}

func (fa *fnAnalyzer) reportf(pos token.Pos, format string, args ...any) {
	if fa.reported[pos] {
		return
	}
	fa.reported[pos] = true
	fa.pass.Reportf(pos, format, args...)
}

// seed marks the //stash:locked mutex as held on entry.
func (fa *fnAnalyzer) seed(e lockEnv, fd *ast.FuncDecl, g guardSpec) {
	if g.typeName != "" {
		e["<locked:"+g.raw+">"] = lockState{qual: g.raw, seeded: true}
		return
	}
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		fa.reportf(fd.Pos(), "//stash:locked %s on a function without a receiver: use the Type.%s form", g.raw, g.raw)
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

// atReturn flags locks still held at a return with no deferred unlock.
func (fa *fnAnalyzer) atReturn(e lockEnv, pos token.Pos) {
	var leaked []string
	for k, s := range e {
		if s.deferred || s.seeded {
			continue
		}
		leaked = append(leaked, k)
	}
	if len(leaked) == 0 {
		return
	}
	sort.Strings(leaked)
	fa.reportf(pos, "%s still locked at return: unlock on every path or defer the unlock", strings.Join(leaked, ", "))
}

// block interprets a block; true means every path through it terminates.
func (fa *fnAnalyzer) block(b *ast.BlockStmt, e lockEnv) bool {
	for _, st := range b.List {
		if fa.stmt(st, e) {
			return true
		}
	}
	return false
}

func (fa *fnAnalyzer) stmt(st ast.Stmt, e lockEnv) bool {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && isPanic(fa.pass.TypesInfo, call) {
			for _, a := range call.Args {
				fa.expr(a, e)
			}
			return true
		}
		fa.expr(st.X, e)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			fa.expr(r, e)
		}
		for _, l := range st.Lhs {
			fa.expr(l, e)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						fa.expr(val, e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			fa.expr(r, e)
		}
		fa.atReturn(e, st.Pos())
		return true
	case *ast.IfStmt:
		return fa.ifStmt(st, e)
	case *ast.ForStmt:
		if st.Init != nil {
			fa.stmt(st.Init, e)
		}
		if st.Cond != nil {
			fa.expr(st.Cond, e)
		}
		fa.loop(st.Body, e, func(ee lockEnv) {
			if st.Post != nil {
				fa.stmt(st.Post, ee)
			}
		})
	case *ast.RangeStmt:
		fa.expr(st.X, e)
		fa.loop(st.Body, e, nil)
	case *ast.SwitchStmt:
		return fa.switchStmt(st.Init, st.Tag, st.Body, false, e)
	case *ast.TypeSwitchStmt:
		return fa.switchStmt(st.Init, nil, st.Body, false, e)
	case *ast.SelectStmt:
		return fa.switchStmt(nil, nil, st.Body, true, e)
	case *ast.BlockStmt:
		return fa.block(st, e)
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line path; conservative:
		// their lock state is dropped rather than merged.
		return true
	case *ast.DeferStmt:
		fa.deferStmt(st, e)
	case *ast.GoStmt:
		fa.expr(st.Call.Fun, e)
		for _, a := range st.Call.Args {
			fa.expr(a, e)
		}
	case *ast.SendStmt:
		fa.expr(st.Chan, e)
		fa.expr(st.Value, e)
	case *ast.IncDecStmt:
		fa.expr(st.X, e)
	case *ast.LabeledStmt:
		return fa.stmt(st.Stmt, e)
	}
	return false
}

func (fa *fnAnalyzer) ifStmt(st *ast.IfStmt, e lockEnv) bool {
	if st.Init != nil {
		fa.stmt(st.Init, e)
	}
	fa.expr(st.Cond, e)
	thenEnv := e.clone()
	thenDone := fa.block(st.Body, thenEnv)
	elseEnv := e.clone()
	elseDone := false
	if st.Else != nil {
		elseDone = fa.stmt(st.Else, elseEnv)
	}
	switch {
	case thenDone && elseDone:
		return true
	case thenDone:
		replace(e, elseEnv)
	case elseDone:
		replace(e, thenEnv)
	default:
		replace(e, thenEnv)
		intersectInto(e, elseEnv)
	}
	return false
}

// switchStmt interprets each clause from a copy of the incoming state and
// intersects the survivors. A switch without a default adds the no-match
// fallthrough path; a select always takes exactly one case.
func (fa *fnAnalyzer) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, isSelect bool, e lockEnv) bool {
	if init != nil {
		fa.stmt(init, e)
	}
	if tag != nil {
		fa.expr(tag, e)
	}
	hasDefault := false
	var survivors []lockEnv
	for _, cl := range body.List {
		clauseEnv := e.clone()
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, x := range cl.List {
				fa.expr(x, clauseEnv)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				fa.stmt(cl.Comm, clauseEnv)
			}
			stmts = cl.Body
		}
		done := false
		for _, s := range stmts {
			if fa.stmt(s, clauseEnv) {
				done = true
				break
			}
		}
		if !done {
			survivors = append(survivors, clauseEnv)
		}
	}
	if !isSelect && !hasDefault {
		survivors = append(survivors, e.clone())
	}
	if len(survivors) == 0 {
		return true
	}
	replace(e, survivors[0])
	for _, s := range survivors[1:] {
		intersectInto(e, s)
	}
	return false
}

// loop runs a body to a fixpoint. With intersection merging the held set
// only shrinks, so the fixpoint is reached in few iterations; reports are
// deduped by position so revisits stay quiet.
func (fa *fnAnalyzer) loop(body *ast.BlockStmt, e lockEnv, post func(lockEnv)) {
	for {
		iter := e.clone()
		if fa.block(body, iter) {
			return // body always exits the loop; e keeps the zero-iteration state
		}
		if post != nil {
			post(iter)
		}
		if !intersectInto(e, iter) {
			return
		}
	}
}

func (fa *fnAnalyzer) deferStmt(st *ast.DeferStmt, e lockEnv) {
	call := st.Call
	if op, target := fa.lockOp(call); op == opUnlock {
		key, name := fa.keyOf(target)
		if s, ok := e[key]; ok {
			s.deferred = true
			e[key] = s
		} else if !fa.nested || fa.everHeld[key] {
			fa.reportf(call.Pos(), "deferred unlock of %s: it is not held on every path reaching here", name)
		}
		return
	} else if op == opLock {
		fa.reportf(call.Pos(), "deferred Lock: locking at function exit is almost certainly a typo for Unlock")
		return
	}
	fa.expr(call.Fun, e)
	for _, a := range call.Args {
		fa.expr(a, e)
	}
}

func (fa *fnAnalyzer) expr(x ast.Expr, e lockEnv) {
	switch x := x.(type) {
	case nil:
	case *ast.CallExpr:
		fa.call(x, e)
	case *ast.SelectorExpr:
		fa.checkGuarded(x, e)
		fa.expr(x.X, e)
	case *ast.ParenExpr:
		fa.expr(x.X, e)
	case *ast.StarExpr:
		fa.expr(x.X, e)
	case *ast.UnaryExpr:
		fa.expr(x.X, e)
	case *ast.BinaryExpr:
		fa.expr(x.X, e)
		fa.expr(x.Y, e)
	case *ast.IndexExpr:
		fa.expr(x.X, e)
		fa.expr(x.Index, e)
	case *ast.IndexListExpr:
		fa.expr(x.X, e)
		for _, i := range x.Indices {
			fa.expr(i, e)
		}
	case *ast.SliceExpr:
		fa.expr(x.X, e)
		fa.expr(x.Low, e)
		fa.expr(x.High, e)
		fa.expr(x.Max, e)
	case *ast.TypeAssertExpr:
		fa.expr(x.X, e)
	case *ast.KeyValueExpr:
		fa.expr(x.Value, e)
	case *ast.CompositeLit:
		// Keyed fields of a literal initialize an object no other goroutine
		// can reach yet; the keys are not guarded accesses.
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			fa.expr(elt, e)
		}
	case *ast.FuncLit:
		fa.funcLits = append(fa.funcLits, x)
	}
}

func (fa *fnAnalyzer) call(x *ast.CallExpr, e lockEnv) {
	if op, target := fa.lockOp(x); op != opNone {
		key, name := fa.keyOf(target)
		switch op {
		case opLock:
			if _, held := e[key]; held {
				fa.reportf(x.Pos(), "%s is already locked here: locking again self-deadlocks", name)
			} else {
				fa.checkOrder(x.Pos(), fa.qualOf(target), e)
			}
			e[key] = lockState{qual: fa.qualOf(target)}
			fa.everHeld[key] = true
		case opUnlock:
			if s, held := e[key]; held {
				if s.deferred {
					fa.reportf(x.Pos(), "unlock of %s with a deferred unlock pending: it double-unlocks at return", name)
				}
				delete(e, key)
			} else if !fa.nested || fa.everHeld[key] {
				fa.reportf(x.Pos(), "unlock of %s: it is not held on every path reaching here (double unlock?)", name)
			}
		}
		fa.expr(target, e)
		return
	}
	if fn := calleeFunc(fa.pass.TypesInfo, x); fn != nil {
		if g, ok := fa.f.locked[fn.Origin()]; ok {
			fa.checkLockedCall(x, fn, g, e)
		}
	}
	for _, a := range x.Args {
		fa.expr(a, e)
	}
	fa.expr(x.Fun, e)
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
	fa.reportf(pos, "lock order violation: acquiring %s while holding %s (declared //stash:lockorder: %s first)",
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
	fa.reportf(sel.Sel.Pos(), "%s is guarded by %s: access requires holding it", v.Name(), g.raw)
}

// guardHeld reports whether the guard of a field accessed through base is
// held in e.
func (fa *fnAnalyzer) guardHeld(g guardSpec, base ast.Expr, e lockEnv) bool {
	if g.typeName == "" {
		if b, ok := renderExpr(base); ok {
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
// required mutex.
func (fa *fnAnalyzer) checkLockedCall(call *ast.CallExpr, fn *types.Func, g guardSpec, e lockEnv) {
	var recv ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv = sel.X
	}
	satisfied := false
	if g.typeName == "" && recv != nil {
		if b, ok := renderExpr(recv); ok {
			if _, held := e[b+"."+g.field]; held {
				satisfied = true
			}
		}
		if !satisfied {
			if tn := namedName(fa.typeOf(recv)); tn != "" {
				want := tn + "." + g.field
				for _, s := range e {
					if s.qual == want {
						satisfied = true
						break
					}
				}
			}
		}
	} else if g.typeName != "" {
		for _, s := range e {
			if s.qual == g.raw {
				satisfied = true
				break
			}
		}
	}
	if !satisfied {
		fa.reportf(call.Pos(), "call to %s requires %s held (//stash:locked)", fn.Name(), g.raw)
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
	if s, ok := renderExpr(x); ok {
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

// renderExpr renders a selector chain structurally: r.mu, j.mu, memo.
func renderExpr(x ast.Expr) (string, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		if b, ok := renderExpr(x.X); ok {
			return b + "." + x.Sel.Name, true
		}
	case *ast.StarExpr:
		return renderExpr(x.X)
	}
	return "", false
}

// calleeFunc resolves a call's target function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPanic reports whether the call is the panic builtin.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
