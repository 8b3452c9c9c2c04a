// Package sharecheck implements the stashvet analyzer that statically
// proves tile isolation in the parallel engine: during a psim epoch, a
// worker may touch only the state its tiles own, and everything that
// crosses tiles must go through the mailbox merge or a sanctioned fold.
// PR 6 made the parallel engine's determinism rest on that discipline;
// sharecheck turns it from a convention policed by golden fixtures into a
// build-time error.
//
// # Vocabulary
//
// Three directives classify state and mediation (see DESIGN.md):
//
//	//stash:tileowned           on a struct type or field: per-tile state,
//	                            owned by one worker during an epoch and
//	                            freely writable from worker context.
//	//stash:shared <reason>     on a type, field, or package var: aliased
//	                            across tiles; read-only while workers run.
//	//stash:fold <reason>       on a function: runs only with the tiles
//	                            quiescent (construction, the serial engine,
//	                            or the epoch barrier on the driver), so its
//	                            writes are mediated and exempt.
//
// # Analysis
//
// The analyzer is interprocedural via the facts layer, bottom-up along the
// package dependency order:
//
//  1. Each pass classifies its package's fields and vars from the
//     directives and exports a classFact per object.
//  2. Each pass summarizes every function's transitive writes to shared or
//     unclassified state — its own writes plus the summaries of its
//     callees, with imported callees contributing through effectFacts —
//     and exports an effectFact for each function with nonempty effects.
//  3. Each pass computes the package's tile-worker-reachable functions:
//     the callees of go statements (the psim worker entry), every named
//     function whose value escapes (address-taken — the event-callback
//     idiom binds handler methods into func-typed fields at construction),
//     and every local method bound into an interface (the endpoint /
//     access-source idiom), closed over static calls. //stash:fold
//     functions stop the closure.
//  4. A write to shared state, or to unclassified state of an in-scope
//     package, inside a worker-reachable function is reported at the write
//     site; a worker-context call or escape of an imported function whose
//     effectFact is nonempty is reported at the call or escape site.
//
// # Approximations
//
// The analysis tracks the syntactic root of each write (the field or
// package var at the base of the selector chain), so a write through a
// local pointer alias of shared state, and writes through bare pointer
// parameters, are not attributed. Dynamic calls through func values are
// not traced — instead every address-taken function is treated as worker-
// reachable, which over-approximates the schedulable set. Both choices
// trade completeness for zero false negatives on the repo's hoisted-
// closure handler idiom, where every scheduled callback is a named method
// bound at construction time.
package sharecheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the tile-isolation check.
var Analyzer = &analysis.Analyzer{
	Name: "sharecheck",
	Doc: "prove tile isolation in the parallel engine: writes reachable from the psim " +
		"worker loop may only touch //stash:tileowned state; //stash:shared state is " +
		"read-only during a run unless mediated by a //stash:fold function",
	AppliesTo: AppliesTo,
	FactTypes: []analysis.Fact{new(classFact), new(foldFact), new(effectFact)},
	Run:       run,
}

// AppliesTo scopes the analyzer to the simulation core, which runs (or may
// run) under the parallel engine.
func AppliesTo(pkgPath string) bool { return analysis.SimulationLayer.Contains(pkgPath) }

// ownClass is the sharing classification of a field or package variable.
type ownClass uint8

const (
	classUnknown ownClass = iota
	classTileOwned
	classShared
)

func (c ownClass) String() string {
	switch c {
	case classTileOwned:
		return "tileowned"
	case classShared:
		return "shared"
	}
	return "unclassified"
}

// classFact is exported for every explicitly classified field or package
// variable, so importing packages resolve the class of state they touch.
type classFact struct {
	Class ownClass
}

func (*classFact) AFact() {}

// foldFact marks a function as a //stash:fold mediation point.
type foldFact struct{}

func (*foldFact) AFact() {}

// effect is one transitive write to non-tile-owned state.
type effect struct {
	Obj   string   // "noc.occupied (noc.go:105)"
	Class ownClass // classShared or classUnknown
}

// effectFact summarizes a function's transitive writes to shared or
// unclassified state, for consumption at call sites in importing packages.
type effectFact struct {
	Writes []effect
}

func (*effectFact) AFact() {}

// maxEffects caps a summary; a function past the cap is thoroughly broken
// anyway and the first few sites identify it.
const maxEffects = 6

// fnInfo is everything collected about one function declaration.
type fnInfo struct {
	obj     *types.Func
	decl    *ast.FuncDecl
	fold    bool
	writes  []writeSite
	calls   []callSite
	effects []effect
}

type writeSite struct {
	obj types.Object
	pos token.Pos
}

type callSite struct {
	fn  *types.Func
	pos token.Pos
}

// escapeSite is a named function value escaping a call position: an
// address-taken function, a go-statement callee, or a method bound into an
// interface.
type escapeSite struct {
	fn  *types.Func
	pos token.Pos
	how string // "address-taken", "spawned", "bound into interface"
}

type checker struct {
	pass    *analysis.Pass
	classes map[*types.Var]ownClass // local classifications, origin objects
	folds   map[*types.Func]bool    // local fold functions
	fns     []*fnInfo
	byObj   map[*types.Func]*fnInfo
	escapes []escapeSite
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		classes: map[*types.Var]ownClass{},
		folds:   map[*types.Func]bool{},
		byObj:   map[*types.Func]*fnInfo{},
	}
	c.collectClasses()
	c.collectFunctions()
	c.summarize()
	c.report()
	return nil
}

// ---- classification ----

// collectClasses reads the //stash:tileowned and //stash:shared directives
// of the package under analysis and exports a classFact per object.
func (c *checker) collectClasses() {
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					typeClass := classUnknown
					for _, cg := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
						if cls, ok := c.directiveClass(cg); ok {
							typeClass = cls
						}
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						if typeClass != classUnknown {
							c.pass.Reportf(ts.Pos(), "//stash:%s on a non-struct type: classify the fields of the struct that embeds it", typeClass)
						}
						continue
					}
					for _, fld := range st.Fields.List {
						fieldClass := typeClass
						for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
							if cls, ok := c.directiveClass(cg); ok {
								fieldClass = cls
							}
						}
						if fieldClass == classUnknown {
							continue
						}
						for _, name := range fld.Names {
							if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
								c.classify(v, fieldClass)
							}
						}
						// An embedded field: classify the field object itself.
						if len(fld.Names) == 0 {
							if v, ok := c.pass.TypesInfo.Implicits[fld].(*types.Var); ok {
								c.classify(v, fieldClass)
							}
						}
					}
				}
			case token.VAR:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					cls := classUnknown
					for _, cg := range []*ast.CommentGroup{gd.Doc, vs.Doc, vs.Comment} {
						if c2, ok := c.directiveClass(cg); ok {
							cls = c2
						}
					}
					if cls == classUnknown {
						continue
					}
					for _, name := range vs.Names {
						if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
							c.classify(v, cls)
						}
					}
				}
			}
		}
	}
}

// directiveClass parses a tileowned/shared directive out of a comment
// group, reporting a malformed shared (missing reason) in place.
func (c *checker) directiveClass(cg *ast.CommentGroup) (ownClass, bool) {
	if cg == nil {
		return classUnknown, false
	}
	for _, cm := range cg.List {
		d, ok := analysis.ParseDirective(cm.Text)
		if !ok {
			continue
		}
		switch d.Verb {
		case analysis.DirectiveTileOwned:
			return classTileOwned, true
		case analysis.DirectiveShared:
			if d.Args == "" {
				c.pass.Reportf(cm.Pos(), "//stash:shared needs a reason: //stash:shared <why aliasing this across tiles is safe>")
			}
			return classShared, true
		}
	}
	return classUnknown, false
}

func (c *checker) classify(v *types.Var, cls ownClass) {
	v = v.Origin()
	c.classes[v] = cls
	c.pass.ExportObjectFact(v, &classFact{Class: cls})
}

// classOf resolves the class of a written object: the local tables for
// objects of this package, imported classFacts for the rest.
func (c *checker) classOf(obj types.Object) ownClass {
	v, ok := obj.(*types.Var)
	if !ok {
		return classUnknown
	}
	v = v.Origin()
	if v.Pkg() == c.pass.Pkg {
		return c.classes[v]
	}
	var f classFact
	if c.pass.ImportObjectFact(v, &f) {
		return f.Class
	}
	return classUnknown
}

// inScope reports whether an object belongs to a package sharecheck
// applies to — the only packages whose unclassified state is demanded to
// be classified.
func (c *checker) inScope(obj types.Object) bool {
	return obj.Pkg() != nil && (obj.Pkg() == c.pass.Pkg || AppliesTo(obj.Pkg().Path()))
}

// ---- function collection ----

// collectFunctions walks every declaration, recording per-function writes
// and static calls, the package's fold set, and every named-function
// escape (address-taken values, go callees, interface bindings).
func (c *checker) collectFunctions() {
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			obj = obj.Origin()
			info := &fnInfo{obj: obj, decl: fd}
			info.fold = c.foldDirective(fd)
			if info.fold {
				c.pass.ExportObjectFact(obj, &foldFact{})
			}
			c.walkBody(info)
			c.fns = append(c.fns, info)
			c.byObj[obj] = info
		}
	}
}

// foldDirective reads //stash:fold off a function's doc comment, checking
// the mandatory reason.
func (c *checker) foldDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, cm := range fd.Doc.List {
		d, ok := analysis.ParseDirective(cm.Text)
		if !ok || d.Verb != analysis.DirectiveFold {
			continue
		}
		if d.Args == "" {
			c.pass.Reportf(cm.Pos(), "//stash:fold needs a reason: //stash:fold <why this runs with every worker parked>")
		}
		return true
	}
	return false
}

// walkBody records writes, calls and escapes in one function body
// (function literals inside it are attributed to the enclosing function).
func (c *checker) walkBody(info *fnInfo) {
	ti := c.pass.TypesInfo
	calleeIdents := map[*ast.Ident]bool{}
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.recordWrite(info, lhs)
			}
			c.bindAssign(n)
		case *ast.IncDecStmt:
			c.recordWrite(info, n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				c.recordWrite(info, n.Key)
				c.recordWrite(info, n.Value)
			}
		case *ast.GoStmt:
			if fn := analysis.Callee(ti, n.Call); fn != nil {
				c.escapes = append(c.escapes, escapeSite{fn: fn, pos: n.Pos(), how: "spawned"})
			}
		case *ast.CallExpr:
			if fn := analysis.Callee(ti, n); fn != nil {
				info.calls = append(info.calls, callSite{fn: fn, pos: n.Pos()})
				if id := analysis.CalleeIdent(n); id != nil {
					calleeIdents[id] = true
				}
				c.bindCallArgs(n, fn)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				if iface := ifaceOf(ti.TypeOf(n.Type)); iface != nil {
					for _, val := range n.Values {
						c.bindIface(ti.TypeOf(val), iface, val.Pos())
					}
				}
			}
		case *ast.ReturnStmt:
			// Return statements inside function literals share the enclosing
			// declaration's signature here; the result-count guard skips the
			// mismatched ones (a documented approximation).
			sig, _ := info.obj.Type().(*types.Signature)
			if sig != nil && sig.Results() != nil && len(n.Results) == sig.Results().Len() {
				for i, r := range n.Results {
					if iface := ifaceOf(sig.Results().At(i).Type()); iface != nil {
						c.bindIface(ti.TypeOf(r), iface, r.Pos())
					}
				}
			}
		case *ast.CompositeLit:
			c.bindComposite(n)
		}
		return true
	})
	// Address-taken pass: any remaining use of a named function that is not
	// a call position is an escape.
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		fn, ok := ti.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		c.escapes = append(c.escapes, escapeSite{fn: fn.Origin(), pos: id.Pos(), how: "address-taken"})
		return true
	})
}

// recordWrite resolves the syntactic root of an assigned expression and
// records it when it is a field or package variable.
func (c *checker) recordWrite(info *fnInfo, lhs ast.Expr) {
	obj := c.rootObject(lhs)
	if obj == nil {
		return
	}
	info.writes = append(info.writes, writeSite{obj: obj, pos: lhs.Pos()})
}

// rootObject walks to the base of a selector/index/deref chain, returning
// the written field or package variable, or nil for locals and
// unresolvable targets.
func (c *checker) rootObject(x ast.Expr) types.Object {
	ti := c.pass.TypesInfo
	switch x := x.(type) {
	case *ast.Ident:
		obj := ti.Uses[x]
		if obj == nil {
			obj = ti.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return nil
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Origin()
		}
		return nil
	case *ast.SelectorExpr:
		if sel, ok := ti.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v.Origin()
			}
			return nil
		}
		// Qualified package variable: pkg.Var.
		if v, ok := ti.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Origin()
			}
		}
		return nil
	case *ast.IndexExpr:
		return c.rootObject(x.X)
	case *ast.IndexListExpr:
		return c.rootObject(x.X)
	case *ast.StarExpr:
		return c.rootObject(x.X)
	case *ast.ParenExpr:
		return c.rootObject(x.X)
	}
	return nil
}

// ---- interface bindings ----

// bindCallArgs records concrete-to-interface conversions at a call's
// arguments.
func (c *checker) bindCallArgs(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if iface := ifaceOf(pt); iface != nil {
			c.bindIface(c.pass.TypesInfo.TypeOf(arg), iface, arg.Pos())
		}
	}
}

// bindAssign records concrete-to-interface conversions at assignments.
func (c *checker) bindAssign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	ti := c.pass.TypesInfo
	for i, lhs := range n.Lhs {
		var lt types.Type
		if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE {
			if obj := ti.Defs[id]; obj != nil {
				lt = obj.Type()
			}
		} else {
			lt = ti.TypeOf(lhs)
		}
		if iface := ifaceOf(lt); iface != nil {
			c.bindIface(ti.TypeOf(n.Rhs[i]), iface, n.Rhs[i].Pos())
		}
	}
}

// bindComposite records concrete-to-interface conversions inside composite
// literals (struct fields and interface-element containers).
func (c *checker) bindComposite(cl *ast.CompositeLit) {
	ti := c.pass.TypesInfo
	t := ti.TypeOf(cl)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := ti.Uses[key].(*types.Var); ok {
						if iface := ifaceOf(v.Type()); iface != nil {
							c.bindIface(ti.TypeOf(kv.Value), iface, kv.Value.Pos())
						}
					}
				}
				continue
			}
			if i < u.NumFields() {
				if iface := ifaceOf(u.Field(i).Type()); iface != nil {
					c.bindIface(ti.TypeOf(elt), iface, elt.Pos())
				}
			}
		}
	case *types.Slice, *types.Array, *types.Map:
		var elem types.Type
		switch u := u.(type) {
		case *types.Slice:
			elem = u.Elem()
		case *types.Array:
			elem = u.Elem()
		case *types.Map:
			elem = u.Elem()
		}
		iface := ifaceOf(elem)
		if iface == nil {
			return
		}
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			c.bindIface(ti.TypeOf(elt), iface, elt.Pos())
		}
	}
}

// bindIface resolves the concrete methods a conversion binds into an
// interface and records them as escapes — a value bound into an interface
// may be scheduled by anything holding it.
func (c *checker) bindIface(concrete types.Type, iface *types.Interface, pos token.Pos) {
	if concrete == nil || iface.NumMethods() == 0 {
		return
	}
	if _, ok := concrete.Underlying().(*types.Interface); ok {
		return // interface-to-interface carries no new methods
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(concrete, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			c.escapes = append(c.escapes, escapeSite{fn: fn.Origin(), pos: pos, how: "bound into interface"})
		}
	}
}

// ifaceOf returns the method-bearing interface under t, or nil.
func ifaceOf(t types.Type) *types.Interface {
	if t == nil {
		return nil
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return nil
	}
	return iface
}

// ---- summaries ----

// summarize computes each local function's transitive effects to a
// fixpoint over the local call graph, importing effectFacts at calls into
// other packages, and exports the nonempty summaries.
func (c *checker) summarize() {
	// Direct effects.
	for _, info := range c.fns {
		for _, w := range info.writes {
			cls := c.classOf(w.obj)
			switch {
			case cls == classTileOwned:
			case cls == classShared:
				info.effects = addEffect(info.effects, effect{Obj: c.objDesc(w.obj), Class: classShared})
			case c.inScope(w.obj):
				info.effects = addEffect(info.effects, effect{Obj: c.objDesc(w.obj), Class: classUnknown})
			}
		}
	}
	// Propagate through local calls to a fixpoint; imported callees
	// contribute their facts once (facts are complete for dependencies).
	for changed := true; changed; {
		changed = false
		for _, info := range c.fns {
			if info.fold {
				continue
			}
			for _, call := range info.calls {
				for _, e := range c.calleeEffects(call.fn) {
					before := len(info.effects)
					info.effects = addEffect(info.effects, e)
					if len(info.effects) != before {
						changed = true
					}
				}
			}
		}
	}
	for _, info := range c.fns {
		if !info.fold && len(info.effects) > 0 {
			sort.Slice(info.effects, func(i, j int) bool { return info.effects[i].Obj < info.effects[j].Obj })
			c.pass.ExportObjectFact(info.obj, &effectFact{Writes: info.effects})
		}
	}
}

// calleeEffects returns a callee's current effect summary: the local
// in-progress one for functions of this package, the imported fact
// otherwise. Fold functions contribute nothing.
func (c *checker) calleeEffects(fn *types.Func) []effect {
	if local, ok := c.byObj[fn]; ok {
		if local.fold {
			return nil
		}
		return local.effects
	}
	if c.isFold(fn) {
		return nil
	}
	var ef effectFact
	if c.pass.ImportObjectFact(fn, &ef) {
		return ef.Writes
	}
	return nil
}

// isFold reports whether a function is a fold mediator, local or imported.
func (c *checker) isFold(fn *types.Func) bool {
	if local, ok := c.byObj[fn]; ok {
		return local.fold
	}
	var f foldFact
	return c.pass.ImportObjectFact(fn, &f)
}

// addEffect dedupes by object and caps the list.
func addEffect(list []effect, e effect) []effect {
	for _, have := range list {
		if have.Obj == e.Obj {
			return list
		}
	}
	if len(list) >= maxEffects {
		return list
	}
	return append(list, e)
}

// objDesc names an object for diagnostics: "pkg.name (file.go:line)".
func (c *checker) objDesc(obj types.Object) string {
	pos := c.pass.Fset.Position(obj.Pos())
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	return fmt.Sprintf("%s%s (%s:%d)", pkg, obj.Name(), filepath.Base(pos.Filename), pos.Line)
}

// ---- worker reachability and reporting ----

// report computes the package's worker-reachable set and reports every
// unmediated write to non-tile-owned state inside it, plus every escape of
// an imported function with a nonempty effect summary.
func (c *checker) report() {
	reachable := map[*fnInfo]bool{}
	var frontier []*fnInfo
	add := func(info *fnInfo) {
		if info == nil || info.fold || reachable[info] {
			return
		}
		reachable[info] = true
		frontier = append(frontier, info)
	}
	// Roots: escapes that resolve to local functions. Imported escapes with
	// effects are reported at the escape site — the value leaves this
	// package for a scheduler we cannot see.
	for _, esc := range c.escapes {
		if local, ok := c.byObj[esc.fn]; ok {
			add(local)
			continue
		}
		if c.isFold(esc.fn) {
			continue
		}
		var ef effectFact
		if c.pass.ImportObjectFact(esc.fn, &ef) && len(ef.Writes) > 0 {
			c.reportEffects(esc.pos, fmt.Sprintf("%s %s", c.fnDesc(esc.fn), esc.how), ef.Writes)
		}
	}
	// Closure over local static calls.
	for len(frontier) > 0 {
		info := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, call := range info.calls {
			if local, ok := c.byObj[call.fn]; ok {
				add(local)
			}
		}
	}
	// Deterministic iteration: declaration order (c.fns is decl order).
	for _, info := range c.fns {
		if !reachable[info] {
			continue
		}
		for _, w := range info.writes {
			cls := c.classOf(w.obj)
			switch {
			case cls == classTileOwned:
			case cls == classShared:
				c.pass.Reportf(w.pos, "write to //stash:shared %s from tile-worker-reachable code: shared state is read-only during a parallel run; route it through the mailbox merge or a //stash:fold mediator", c.objDesc(w.obj))
			case c.inScope(w.obj):
				c.pass.Reportf(w.pos, "write to unclassified %s from tile-worker-reachable code: mark it //stash:tileowned or //stash:shared <reason>, or mediate via //stash:fold", c.objDesc(w.obj))
			}
		}
		for _, call := range info.calls {
			if _, ok := c.byObj[call.fn]; ok {
				continue // local callee: its own writes report at their sites
			}
			if c.isFold(call.fn) {
				continue
			}
			var ef effectFact
			if c.pass.ImportObjectFact(call.fn, &ef) && len(ef.Writes) > 0 {
				c.reportEffects(call.pos, fmt.Sprintf("call to %s from tile-worker-reachable code", c.fnDesc(call.fn)), ef.Writes)
			}
		}
	}
}

// reportEffects reports one escape or cross-package call whose target
// writes non-tile-owned state.
func (c *checker) reportEffects(pos token.Pos, what string, writes []effect) {
	parts := make([]string, 0, len(writes))
	for _, e := range writes {
		parts = append(parts, fmt.Sprintf("%s %s", e.Class, e.Obj))
	}
	c.pass.Reportf(pos, "%s writes non-tile-owned state (%s): classify the state, mediate with //stash:fold, or keep it off the worker path",
		what, strings.Join(parts, ", "))
}

// fnDesc names a function for diagnostics, receiver-qualified.
func (c *checker) fnDesc(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Name(), n.Obj().Name(), fn.Name())
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
