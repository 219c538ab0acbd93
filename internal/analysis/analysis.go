// Package analysis is a minimal, dependency-free static-analysis
// framework modeled on golang.org/x/tools/go/analysis. The repository
// cannot vendor x/tools, so this package reimplements the small slice
// of its API that the ddd-lint analyzers need: an Analyzer value with a
// Run function, a Pass carrying one type-checked package, and position-
// tagged Diagnostics. Analyzers written against it keep the x/tools
// shape, so porting them to the real multichecker later is mechanical.
//
// The framework enforces the project-wide invariants that the
// statistical diagnosis pipeline depends on (see DESIGN.md,
// "Determinism & lint invariants"): deterministic randomness, parallel
// write safety under par.For, epsilon-aware float comparison, and
// checked invariant errors.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"

	"repro/internal/analysis/flow"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package. It reports problems
	// via pass.Reportf and returns a non-nil error only for internal
	// failures (not for findings).
	Run func(pass *Pass) error
}

// Pass carries the inputs of one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ImportPath is the package's import path as reported by the
	// loader ("repro/internal/dist"). Test-variant packages report
	// the path of the package under test.
	ImportPath string

	diagnostics []Diagnostic
	cfgs        map[ast.Node]*flow.Graph
}

// CFG returns the control-flow graph of fn (an *ast.FuncDecl or
// *ast.FuncLit), building it on first request and memoizing it for
// the rest of the pass, so several flow-sensitive analyzers of one
// suite share construction cost. It returns nil when fn has no body.
func (p *Pass) CFG(fn ast.Node) *flow.Graph {
	if g, ok := p.cfgs[fn]; ok {
		return g
	}
	if p.cfgs == nil {
		p.cfgs = make(map[ast.Node]*flow.Graph)
	}
	g := flow.New(fn)
	p.cfgs[fn] = g
	return g
}

// ForEachFunc calls f once for every function declaration and every
// function literal in the pass's files that has a body. Each function
// literal is visited in its own right — its body is excluded from the
// enclosing function's CFG — so flow-sensitive analyzers see every
// body exactly once.
func (p *Pass) ForEachFunc(f func(fn ast.Node, body *ast.BlockStmt)) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					f(n, n.Body)
				}
			case *ast.FuncLit:
				if n.Body != nil {
					f(n, n.Body)
				}
			}
			return true
		})
	}
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed is set by ApplySuppressions when a //lint:ignore
	// directive covers the diagnostic.
	Suppressed bool
	// SuppressReason holds the directive's free-text justification
	// when Suppressed is set.
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by identifier id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// Callee returns the function or method that call invokes, or nil for
// builtins, function values, and conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// QualifierPath returns the import path of the package that e names
// when e is a selector's package qualifier (the fmt of fmt.Println),
// or "" when e is not a package name.
func (p *Pass) QualifierPath(e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	pkg, ok := p.ObjectOf(id).(*types.PkgName)
	if !ok {
		return ""
	}
	return pkg.Imported().Path()
}

// NamedOf returns the named type t denotes, looking through one
// pointer (a method receiver's *T), or nil.
func NamedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// Run applies each analyzer to each package and returns all
// diagnostics, sorted by position then analyzer. Suppression
// directives are already applied: suppressed diagnostics are included
// with Suppressed set so drivers can count them.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	diags, _, err := RunTimed(analyzers, pkgs)
	return diags, err
}

// Timing records one analyzer's cumulative wall time across every
// package of a RunTimed call.
type Timing struct {
	Analyzer string
	Duration time.Duration
}

// RunTimed is Run with per-analyzer wall-time accounting, in the
// analyzers' given order, so drivers can report which passes dominate
// the lint gate.
func RunTimed(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, []Timing, error) {
	var all []Diagnostic
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		supp := collectSuppressions(pkg.Fset, pkg.Files)
		// One CFG cache per package: every flow-sensitive analyzer in
		// the suite reuses the graphs built by the first one.
		cfgs := make(map[ast.Node]*flow.Graph)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				ImportPath: pkg.ImportPath,
				cfgs:       cfgs,
			}
			start := time.Now()
			err := a.Run(pass)
			elapsed[a.Name] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
			all = append(all, supp.apply(pass.diagnostics)...)
		}
	}
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, Timing{Analyzer: a.Name, Duration: elapsed[a.Name]})
	}
	sort.Slice(all, func(i, j int) bool {
		pi, pj := all[i].Pos, all[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, timings, nil
}
