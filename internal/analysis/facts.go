package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// This file is the cross-package facts layer: the object half of the
// x/tools Fact vocabulary (ExportObjectFact / ImportObjectFact),
// reimplemented in memory for the stashvet driver. An analyzer that declares
// FactTypes runs over every module package it applies to — dependencies
// before dependents, the order `go list -deps` already guarantees — and may
// attach typed facts to objects as it goes. A later pass over
// an importing package reads those facts back, which is what lets sharecheck
// reason interprocedurally (a handler in internal/coherence calling into
// internal/noc sees noc's per-function write summaries) without any
// whole-program SSA.
//
// Differences from golang.org/x/tools/go/analysis, all consequences of the
// single-process driver:
//
//   - facts are plain Go values held in memory for the duration of one run;
//     there is no gob serialization and no fact cache between runs,
//   - facts flow strictly forward along the dependency order: a pass can
//     read facts of the packages it imports, never of its importers,
//   - fact types must be pointers and must be registered in the analyzer's
//     FactTypes; violations are programming errors and panic.

// Fact is a typed datum attached to an object by one analyzer pass and
// visible to passes over importing packages. Implementations must
// be pointer types; the AFact marker method keeps accidental types out.
type Fact interface{ AFact() }

// factSet is one analyzer's accumulated facts across a whole run. The
// driver creates one per fact-declaring analyzer and threads it through
// every pass, so facts exported while analyzing a dependency are visible
// while analyzing its dependents.
type factSet struct {
	analyzer string
	allowed  map[reflect.Type]bool
	obj      map[types.Object]map[reflect.Type]Fact
}

func newFactSet(a *Analyzer) *factSet {
	fs := &factSet{
		analyzer: a.Name,
		allowed:  make(map[reflect.Type]bool, len(a.FactTypes)),
		obj:      map[types.Object]map[reflect.Type]Fact{},
	}
	for _, f := range a.FactTypes {
		t := reflect.TypeOf(f)
		if t == nil || t.Kind() != reflect.Pointer {
			panic(fmt.Sprintf("analysis: %s: FactTypes entry %T is not a pointer type", a.Name, f))
		}
		fs.allowed[t] = true
	}
	return fs
}

// checkFactType validates that fact is a registered pointer type.
func (fs *factSet) checkFactType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if !fs.allowed[t] {
		panic(fmt.Sprintf("analysis: %s: fact type %T not declared in FactTypes", fs.analyzer, fact))
	}
	return t
}

// ExportObjectFact attaches fact to obj, replacing any existing fact of the
// same type. obj must belong to the package under analysis — facts describe
// what a package knows about its own declarations; importers read, they do
// not write.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	fs := p.factSet()
	t := fs.checkFactType(fact)
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("analysis: %s: ExportObjectFact: object %v does not belong to package %v",
			fs.analyzer, obj, p.Pkg))
	}
	m := fs.obj[obj]
	if m == nil {
		m = map[reflect.Type]Fact{}
		fs.obj[obj] = m
	}
	m[t] = fact
}

// ImportObjectFact copies the fact of ptr's type attached to obj into ptr,
// reporting whether one was found. obj may belong to any package analyzed
// earlier in the run (or the current one).
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	fs := p.factSet()
	t := fs.checkFactType(ptr)
	got, ok := fs.obj[obj][t]
	if !ok {
		return false
	}
	// Copy out so the importer cannot mutate the stored fact.
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// factSet returns the pass's fact store, panicking with a usable message
// when the analyzer declared no FactTypes (facts must be declared up front
// so the driver knows to run the analyzer over dependency packages too).
func (p *Pass) factSet() *factSet {
	if p.facts == nil {
		panic(fmt.Sprintf("analysis: %s: fact API used but Analyzer.FactTypes is empty", p.Analyzer.Name))
	}
	return p.facts
}
