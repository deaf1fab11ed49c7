package main

// The correctness oracle. It trusts neither the analyses nor the VM:
// every reported finding is replayed under a monitor written here, on
// the tree-walking engine (native ports for builtins), and judged by the
// finding's own definition. Lifted Go functions are also compared with
// their natively compiled twins, and xsat models are re-evaluated by an
// independent formula evaluator.

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/fp"
	"repro/internal/gofront"
	"repro/internal/gsl/lift"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/rt"
)

// event is one observation of a replayed execution.
type event struct {
	branch bool
	site   int
	a, b   float64 // branch operands, or the op value in a
	taken  bool
}

// recorder is the oracle's rt.Monitor: it records every branch (with
// its operands and outcome) and every FP-op value, and never stops.
type recorder struct{ ev []event }

func (r *recorder) Reset() { r.ev = r.ev[:0] }
func (r *recorder) Branch(site int, op fp.CmpOp, a, b float64) {
	r.ev = append(r.ev, event{branch: true, site: site, a: a, b: b, taken: cmp(op, a, b)})
}
func (r *recorder) FPOp(site int, v float64) bool {
	r.ev = append(r.ev, event{site: site, a: v})
	return false
}
func (r *recorder) Value() float64 { return 0 }

// cmp evaluates a comparison with IEEE semantics, independently of
// fp.CmpOp.Eval.
func cmp(op fp.CmpOp, a, b float64) bool {
	switch op.String() {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	case "==":
		return a == b
	case "!=":
		return a != b
	}
	panic("oracle: unknown comparison " + op.String())
}

// sameFloat is bitwise equality that treats every NaN as equal.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// oracle replays findings. It caches one tree-engine interpreter per
// distinct source; it is safe for concurrent use.
type oracle struct {
	mu    sync.Mutex
	trees map[string]*interp.Interp
}

func newOracle() *oracle { return &oracle{trees: map[string]*interp.Interp{}} }

// tree returns the tree-engine interpreter of a source program.
func (o *oracle) tree(lang, src string) (*interp.Interp, error) {
	key := lang + "\x00" + src
	o.mu.Lock()
	defer o.mu.Unlock()
	if it, ok := o.trees[key]; ok {
		return it, nil
	}
	lg, err := gofront.ParseLang(lang)
	if err != nil {
		return nil, err
	}
	mod, err := gofront.CompileSource(lg, "", src)
	if err != nil {
		return nil, err
	}
	it := interp.New(mod)
	it.Engine = interp.EngineTree
	o.trees[key] = it
	return it, nil
}

// target resolves a job's program for replay: a fresh native port for
// builtins, a tree-engine instance for sources. ret evaluates the
// program's return value (nil for builtins); native is the natively
// compiled twin of a lifted Go function (nil otherwise).
type target struct {
	prog   *rt.Program
	ret    func(x []float64) float64
	native func(x []float64) float64
}

func (o *oracle) target(j pipeline.Job) (target, error) {
	if j.Builtin != "" {
		p, err := cli.Builtin(j.Builtin)
		return target{prog: p}, err
	}
	it, err := o.tree(j.Lang, j.Source)
	if err != nil {
		return target{}, err
	}
	fn := j.Func
	if fn == "" {
		fn = it.Mod.Order[0]
	}
	// A fork per call: the tree walker's scratch state is per instance.
	fork := interp.New(it.Mod)
	fork.Engine = interp.EngineTree
	p, err := fork.Program(fn)
	if err != nil {
		return target{}, err
	}
	t := target{prog: p, ret: func(x []float64) float64 {
		v, _ := fork.Run(fn, x)
		return v
	}}
	if j.Lang == "go" {
		if f, ok := lift.Funcs()[fn]; ok {
			t.native = f.Call
		}
	}
	return t, nil
}

// verdict is the oracle's judgement of one job result.
type verdict struct {
	findings int
	problems []string
}

func (v *verdict) failf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// check judges one result of job j. A result must have run to
// completion, and every finding it reports must replay.
func (o *oracle) check(j pipeline.Job, r pipeline.JobResult) verdict {
	var v verdict
	if r.Error != "" || r.Canceled || r.Report == nil {
		v.failf("job did not complete: error=%q canceled=%v", r.Error, r.Canceled)
		return v
	}
	if rep, ok := r.Report.(*analysis.SatRun); ok {
		if rep.Verdict == 1 { // sat.Sat
			v.findings = 1
			env := map[string]float64{}
			for name, i := range rep.Vars {
				if i < len(rep.Model) {
					env[name] = rep.Model[i]
				}
			}
			ok, err := evalFormula(j.Spec.Formula, env)
			if err != nil {
				v.failf("xsat: formula %q: %v", j.Spec.Formula, err)
			} else if !ok {
				v.failf("xsat: model %v does not satisfy %q", rep.Model, j.Spec.Formula)
			}
		}
		return v
	}
	t, err := o.target(j)
	if err != nil {
		v.failf("oracle cannot load program: %v", err)
		return v
	}
	rec := &recorder{}
	replay := func(x []float64) []event {
		if len(x) != t.prog.Dim {
			v.failf("finding input %v has arity %d, program %d", x, len(x), t.prog.Dim)
			return nil
		}
		t.prog.Execute(rec, x)
		if t.native != nil {
			if got, want := t.ret(x), t.native(x); !sameFloat(got, want) {
				v.failf("lifted %s(%v): tree engine %v, native %v", j.Func, x, got, want)
			}
		}
		return rec.ev
	}
	switch rep := r.Report.(type) {
	case *analysis.BoundaryReport:
		v.findings = len(rep.Conditions)
		for _, c := range rep.Conditions {
			if len(c.Examples) == 0 {
				v.failf("bva: condition %+v has no example input", c.Key)
			}
			for _, x := range c.Examples {
				hit := false
				for _, e := range replay(x) {
					hit = hit || (e.branch && e.site == c.Key.Site && e.a == e.b)
				}
				if !hit {
					v.failf("bva: input %v does not make the operands of branch %d equal", x, c.Key.Site)
				}
				if len(x) > 0 && math.Signbit(x[0]) != c.Key.Negative {
					v.failf("bva: input %v filed under negative=%v", x, c.Key.Negative)
				}
			}
		}
	case *analysis.CoverReport:
		v.findings = len(rep.Covered)
		for _, side := range rep.Covered {
			x, ok := rep.Inputs[side]
			if !ok {
				v.failf("coverage: side %d:%v has no input", side.Site, side.Taken)
				continue
			}
			hit := false
			for _, e := range replay(x) {
				hit = hit || (e.branch && e.site == side.Site && e.taken == side.Taken)
			}
			if !hit {
				v.failf("coverage: input %v does not take side %d:%v", x, side.Site, side.Taken)
			}
		}
	case *analysis.OverflowRun:
		v.findings = len(rep.Findings)
		for _, f := range rep.Findings {
			if !opHits(replay(f.Input), f.Site, func(x float64) bool {
				return math.IsNaN(x) || math.Abs(x) >= math.MaxFloat64
			}) {
				v.failf("overflow: input %v does not overflow op %d", f.Input, f.Site)
			}
		}
	case *analysis.NonFiniteReport:
		v.findings = len(rep.Findings)
		for _, f := range rep.Findings {
			if !opHits(replay(f.Input), f.Site, func(x float64) bool {
				return math.IsNaN(x) || math.IsInf(x, 0)
			}) {
				v.failf("nan: input %v gives no non-finite value at op %d", f.Input, f.Site)
			}
		}
	case *analysis.ReachRun:
		if rep.Found {
			v.findings = 1
			if !followsPath(replay(rep.X), j.Spec.Path) {
				v.failf("reach: input %v does not follow path %v", rep.X, j.Spec.Path)
			}
		}
	default:
		v.failf("unexpected report type %T", r.Report)
	}
	return v
}

func opHits(ev []event, site int, pred func(float64) bool) bool {
	for _, e := range ev {
		if !e.branch && e.site == site && pred(e.a) {
			return true
		}
	}
	return false
}

// followsPath reports whether the recorded branches realize the target:
// each target decision is matched, in order, by the next execution of
// its site; other branches may intervene.
func followsPath(ev []event, target []instrument.Decision) bool {
	next := 0
	for _, e := range ev {
		if !e.branch || next == len(target) || e.site != target[next].Site {
			continue
		}
		if e.taken != target[next].Taken {
			return false
		}
		next++
	}
	return next == len(target)
}

// vmMatchesTree checks a source program's VM engine against its tree
// engine on the given inputs, bit for bit.
func vmMatchesTree(lang, src, fn string, inputs [][]float64) error {
	lg, err := gofront.ParseLang(lang)
	if err != nil {
		return err
	}
	mod, err := gofront.CompileSource(lg, "", src)
	if err != nil {
		return err
	}
	vm, tree := interp.New(mod), interp.New(mod)
	vm.Engine, tree.Engine = interp.EngineVM, interp.EngineTree
	for _, x := range inputs {
		a, err := vm.Run(fn, x)
		if err != nil {
			return err
		}
		b, _ := tree.Run(fn, x)
		if !sameFloat(a, b) {
			return fmt.Errorf("%s(%v): vm %v, tree %v", fn, x, a, b)
		}
	}
	return nil
}

// --- an independent evaluator for the xsat formula syntax ---

// evalFormula parses a CNF formula (comparisons of arithmetic
// expressions over named variables, joined by && and ||) and evaluates
// it under the variable binding env.
func evalFormula(src string, env map[string]float64) (res bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	p := &fparser{toks: tokenize(src), env: env}
	res = p.or()
	if p.pos != len(p.toks) {
		panic("trailing input at " + p.peek())
	}
	return res, nil
}

func tokenize(s string) []string {
	var toks []string
	for i := 0; i < len(s); {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case unicode.IsDigit(c) || c == '.':
			j := i
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.' || s[j] == 'e' || s[j] == 'E' ||
				((s[j] == '+' || s[j] == '-') && (s[j-1] == 'e' || s[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(s) && (unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j])) || s[j] == '_') {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			if i+1 < len(s) {
				if two := s[i : i+2]; two == "<=" || two == ">=" || two == "==" || two == "!=" || two == "&&" || two == "||" {
					toks = append(toks, two)
					i += 2
					continue
				}
			}
			toks = append(toks, s[i:i+1])
			i++
		}
	}
	return toks
}

type fparser struct {
	toks []string
	pos  int
	env  map[string]float64
}

func (p *fparser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *fparser) eat(t string) bool {
	if p.peek() == t {
		p.pos++
		return true
	}
	return false
}

func (p *fparser) or() bool {
	v := p.and()
	for p.eat("||") {
		w := p.and()
		v = v || w
	}
	return v
}

func (p *fparser) and() bool {
	v := p.boolPrimary()
	for p.eat("&&") {
		w := p.boolPrimary()
		v = v && w
	}
	return v
}

// boolPrimary is a parenthesized formula or a comparison; a leading "("
// may open either, so the formula reading is tried first.
func (p *fparser) boolPrimary() bool {
	if p.peek() == "(" {
		save := p.pos
		ok, v := func() (ok, v bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			p.pos++
			v = p.or()
			if !p.eat(")") {
				panic("want )")
			}
			return true, v
		}()
		if ok {
			return v
		}
		p.pos = save
	}
	l := p.expr()
	op := p.peek()
	p.pos++
	r := p.expr()
	switch op {
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	case "==":
		return l == r
	case "!=":
		return l != r
	}
	panic("want a comparison, got " + op)
}

func (p *fparser) expr() float64 {
	v := p.term()
	for {
		switch {
		case p.eat("+"):
			v += p.term()
		case p.eat("-"):
			v -= p.term()
		default:
			return v
		}
	}
}

func (p *fparser) term() float64 {
	v := p.unary()
	for {
		switch {
		case p.eat("*"):
			v *= p.unary()
		case p.eat("/"):
			v /= p.unary()
		default:
			return v
		}
	}
}

func (p *fparser) unary() float64 {
	if p.eat("-") {
		return -p.unary()
	}
	return p.primary()
}

var formulaFuncs = map[string]func(float64) float64{
	"sin": math.Sin, "cos": math.Cos, "tan": math.Tan, "exp": math.Exp,
	"log": math.Log, "sqrt": math.Sqrt, "fabs": math.Abs,
}

func (p *fparser) primary() float64 {
	t := p.peek()
	p.pos++
	switch {
	case t == "(":
		v := p.expr()
		if !p.eat(")") {
			panic("want )")
		}
		return v
	case t == "":
		panic("unexpected end of formula")
	case unicode.IsDigit(rune(t[0])) || t[0] == '.':
		v, err := strconv.ParseFloat(t, 64)
		if err != nil {
			panic(err)
		}
		return v
	}
	if f, ok := formulaFuncs[t]; ok {
		if !p.eat("(") {
			panic("want ( after " + t)
		}
		v := p.expr()
		if !p.eat(")") {
			panic("want )")
		}
		return f(v)
	}
	if v, ok := p.env[t]; ok {
		return v
	}
	panic("unknown token " + t)
}
