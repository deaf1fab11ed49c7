package gofront_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/gofront"
	"repro/internal/gsl/lift"
)

// FuzzGoFront holds the Go frontend to arbitrary source: parsing,
// type checking and lowering return an error or a module, never a
// panic, and every function of an accepted module compiles for the VM
// and agrees bit for bit with the tree-walking engine — results,
// observation traces, assert failures and step-budget aborts (the
// internal/fuzz engine oracle) — on a few inputs derived from the
// fuzzed scalar.
//
// The corpus is seeded from the lifted GSL sources and from every Go
// snippet in this package's tests.
func FuzzGoFront(f *testing.F) {
	f.Add(lift.CombinedSource(), 1.5)
	for _, src := range lift.Sources() {
		f.Add(src, 0.5)
	}
	for _, src := range testSnippets(f) {
		f.Add(src, -2.25)
	}

	f.Fuzz(func(t *testing.T, src string, x0 float64) {
		mod, err := gofront.Compile("fuzz.go", src) // must not panic
		if err != nil {
			return
		}
		for _, fn := range mod.Order {
			dim := mod.Funcs[fn].NParams
			inputs := [][]float64{make([]float64, dim), make([]float64, dim)}
			for i := 0; i < dim; i++ {
				inputs[0][i] = x0
				inputs[1][i] = -x0 * float64(i+1)
			}
			vs := fuzz.CheckModule(mod, src, fn, inputs, fuzz.EngineCheck{
				MaxSteps:    20000,
				BudgetSweep: 4,
				EarlyStops:  2,
			})
			if len(vs) > 0 {
				t.Fatalf("%s: %s", fn, vs[0])
			}
		}
	})
}

// testSnippets returns the Go programs written as string literals in
// gofront_test.go: every literal that starts with a package clause.
func testSnippets(tb testing.TB) []string {
	file, err := parser.ParseFile(token.NewFileSet(), "gofront_test.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "package ") {
			out = append(out, s)
		}
		return true
	})
	if len(out) == 0 {
		tb.Fatal("no Go snippets found in gofront_test.go")
	}
	return out
}
