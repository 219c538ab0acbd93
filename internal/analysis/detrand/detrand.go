// Package detrand implements the determinism analyzer: all randomness
// must flow through the deterministic, splittable streams of
// repro/internal/rng.
//
// It reports:
//   - any use of a package-level function of math/rand or math/rand/v2
//     (global generators such as rand.Float64, and raw constructors
//     such as rand.New/rand.NewPCG) outside internal/rng itself;
//   - wall-clock seeding: time.Now().UnixNano() and friends, whose
//     values change run to run and destroy reproducibility.
//
// Passing a *rand.Rand value around (the type, its methods) is fine —
// the invariant is only that every generator is constructed by
// internal/rng from an explicit seed.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid math/rand package-level functions and wall-clock seeds; " +
		"randomness must come from repro/internal/rng streams",
	Run: run,
}

// rngPkgSuffix identifies the one package allowed to construct
// generators directly.
const rngPkgSuffix = "internal/rng"

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// unixMethods are the time.Time accessors conventionally used to turn
// the wall clock into a seed.
var unixMethods = map[string]bool{
	"Unix": true, "UnixNano": true, "UnixMilli": true, "UnixMicro": true,
}

func run(pass *analysis.Pass) error {
	exempt := strings.HasSuffix(pass.ImportPath, rngPkgSuffix)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if !exempt {
					checkRandUse(pass, n)
				}
			case *ast.CallExpr:
				checkWallClockSeed(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkRandUse flags sel when it denotes a package-level function of
// math/rand or math/rand/v2 (type and constant references stay legal).
func checkRandUse(pass *analysis.Pass, sel *ast.SelectorExpr) {
	path := pass.QualifierPath(sel.X)
	if !isRandPkg(path) {
		return
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	pass.Reportf(sel.Pos(),
		"call of %s.%s: construct generators with repro/internal/rng (rng.New, rng.NewDerived) so runs stay reproducible",
		path, fn.Name())
}

// checkWallClockSeed flags time.Now().UnixNano() and sibling chains.
func checkWallClockSeed(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !unixMethods[sel.Sel.Name] {
		return
	}
	inner, ok := sel.X.(*ast.CallExpr)
	if !ok {
		return
	}
	innerSel, ok := inner.Fun.(*ast.SelectorExpr)
	if !ok || innerSel.Sel.Name != "Now" || pass.QualifierPath(innerSel.X) != "time" {
		return
	}
	pass.Reportf(call.Pos(),
		"wall-clock value time.Now().%s(): seeds must be explicit constants or flags, not the clock",
		sel.Sel.Name)
}
