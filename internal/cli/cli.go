// Package cli carries the shared plumbing of the command-line tools:
// loading FPL programs from disk, resolving built-in benchmark
// programs, and parsing bound/path specifications.
package cli

import (
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/gofront"
	"repro/internal/gsl"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/libm"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/rt"
)

// builtins maps names accepted by -builtin to program constructors.
var builtins = map[string]func() *rt.Program{
	"fig1a":  progs.Fig1a,
	"fig1b":  progs.Fig1b,
	"fig2":   progs.Fig2,
	"eqzero": progs.EqZero,
	"sin":    libm.SinProgram,
	"bessel": gsl.BesselProgram,
	"hyperg": gsl.Hyperg2F0Program,
	"airy":   gsl.AiryAiProgram,
}

// BuiltinNames lists the available built-in programs.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Builtin resolves a built-in program by name.
func Builtin(name string) (*rt.Program, error) {
	mk, ok := builtins[name]
	if !ok {
		return nil, analysis.Specf("builtin", name, "unknown builtin %q (available: %s)",
			name, strings.Join(BuiltinNames(), ", "))
	}
	return mk(), nil
}

// LoadSource compiles a source file under lang ("fpl" or "go"; empty =
// detect from the path extension, .go meaning Go) and wraps the named
// function (empty = first declared) as an instrumentable program.
// Compile errors carry file:line:col positions for both languages.
func LoadSource(path, lang, fn string) (*rt.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lg gofront.Lang
	if lang == "" {
		lg = gofront.DetectLang(path)
	} else if lg, err = gofront.ParseLang(lang); err != nil {
		return nil, err
	}
	mod, err := gofront.CompileSource(lg, path, string(src))
	if err != nil {
		return nil, err
	}
	if fn == "" {
		fn = mod.Order[0]
	}
	return interp.New(mod).Program(fn)
}

// Resolve loads either a built-in (-builtin name) or a source file
// under lang (empty = detect from the file extension).
func Resolve(builtin, file, lang, fn string) (*rt.Program, error) {
	switch {
	case builtin != "" && file != "":
		return nil, analysis.Specf("program", "", "use either -builtin or a source file, not both")
	case builtin != "":
		return Builtin(builtin)
	case file != "":
		return LoadSource(file, lang, fn)
	}
	return nil, analysis.Specf("program", "", "no program: pass -builtin NAME or a source file (builtins: %s)",
		strings.Join(BuiltinNames(), ", "))
}

// SFForBuiltin returns the concrete GSL-convention special function
// behind a built-in program, or nil. It powers the §6.3.2 inconsistency
// replay of the overflow analysis.
func SFForBuiltin(name string) analysis.SFFunc {
	switch name {
	case "bessel":
		return func(x []float64) (gsl.Result, gsl.Status) { return gsl.BesselKnuScaledAsympx(x[0], x[1]) }
	case "hyperg":
		return func(x []float64) (gsl.Result, gsl.Status) { return gsl.Hyperg2F0(x[0], x[1], x[2]) }
	case "airy":
		return func(x []float64) (gsl.Result, gsl.Status) { return gsl.AiryAi(x[0]) }
	}
	return nil
}

// ParseBounds reads "lo:hi[,lo:hi...]" into per-dimension bounds; a
// single pair is broadcast over dim dimensions. Parse errors name the
// offending token and its position within the spec; validity (NaN,
// lo > hi, the dimension count) is opt.BroadcastBounds', the same
// check the /v1 surface applies.
func ParseBounds(spec string, dim int) ([]opt.Bound, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	var bs []opt.Bound
	for i, part := range parts {
		lohi := strings.Split(part, ":")
		if len(lohi) != 2 {
			return nil, analysis.Specf("bounds", spec, "bad bound %q (pair %d of %q), want lo:hi", part, i+1, spec)
		}
		lo, err := strconv.ParseFloat(strings.TrimSpace(lohi[0]), 64)
		if err != nil {
			return nil, analysis.Specf("bounds", spec, "bad bound %q (pair %d of %q): lower bound %q is not a number", part, i+1, spec, strings.TrimSpace(lohi[0]))
		}
		hi, err := strconv.ParseFloat(strings.TrimSpace(lohi[1]), 64)
		if err != nil {
			return nil, analysis.Specf("bounds", spec, "bad bound %q (pair %d of %q): upper bound %q is not a number", part, i+1, spec, strings.TrimSpace(lohi[1]))
		}
		bs = append(bs, opt.Bound{Lo: lo, Hi: hi})
	}
	bs, err := opt.BroadcastBounds(bs, dim)
	if err != nil {
		return nil, analysis.Specf("bounds", spec, "bounds %q: %v", spec, err)
	}
	return bs, nil
}

// ParsePath reads "site:t,site:f,..." into a decision sequence.
func ParsePath(spec string) ([]instrument.Decision, error) {
	if spec == "" {
		return nil, analysis.Specf("path", "", "empty path; want e.g. 0:t,1:f")
	}
	var ds []instrument.Decision
	for _, part := range strings.Split(spec, ",") {
		sv := strings.Split(strings.TrimSpace(part), ":")
		if len(sv) != 2 {
			return nil, analysis.Specf("path", spec, "bad decision %q, want site:t or site:f", part)
		}
		site, err := strconv.Atoi(sv[0])
		if err != nil {
			return nil, analysis.Specf("path", spec, "bad site in %q: %v", part, err)
		}
		var taken bool
		switch strings.ToLower(sv[1]) {
		case "t", "true", "1":
			taken = true
		case "f", "false", "0":
			taken = false
		default:
			return nil, analysis.Specf("path", spec, "bad outcome in %q, want t or f", part)
		}
		ds = append(ds, instrument.Decision{Site: site, Taken: taken})
	}
	return ds, nil
}

// Backend resolves a backend name through the opt registry.
func Backend(name string) (opt.Minimizer, error) {
	return opt.BackendByName(name)
}
