package rt_test

import (
	"math"
	"testing"

	"repro/internal/fp"
	"repro/internal/instrument"
	"repro/internal/progs"
	"repro/internal/rt"
)

func TestNopMonitorPlainExecution(t *testing.T) {
	p := progs.Fig2()
	if w := p.Execute(rt.NopMonitor{}, []float64{0}); w != 0 {
		t.Errorf("nop monitor w = %v, want 0", w)
	}
}

func TestCtxCmpEvaluates(t *testing.T) {
	var got []bool
	p := &rt.Program{
		Name: "cmp",
		Dim:  1,
		Run: func(ctx *rt.Ctx, in []float64) {
			got = append(got,
				ctx.Cmp(0, fp.LT, in[0], 1),
				ctx.Cmp(1, fp.GE, in[0], 0),
			)
		},
	}
	p.Execute(rt.NopMonitor{}, []float64{0.5})
	if !got[0] || !got[1] {
		t.Errorf("Cmp results = %v, want both true", got)
	}
}

// stopAfter aborts execution after n FP ops.
type stopAfter struct {
	n, seen int
}

func (m *stopAfter) Reset()                                 { m.seen = 0 }
func (m *stopAfter) Branch(int, fp.CmpOp, float64, float64) {}
func (m *stopAfter) Value() float64                         { return float64(m.seen) }
func (m *stopAfter) FPOp(site int, v float64) bool {
	m.seen++
	return m.seen >= m.n
}

func TestEarlyStopUnwinds(t *testing.T) {
	p := progs.Fig2()
	m := &stopAfter{n: 1}
	// Input 0 executes ops inc, square, dec; the stop after the first op
	// must abort before the others.
	if w := p.Execute(m, []float64{0}); w != 1 {
		t.Errorf("execution saw %v ops, want stop after 1", w)
	}
}

func TestEarlyStopDoesNotSwallowRealPanics(t *testing.T) {
	p := &rt.Program{
		Name: "panics",
		Dim:  1,
		Run: func(ctx *rt.Ctx, in []float64) {
			panic("real bug")
		},
	}
	defer func() {
		if r := recover(); r != "real bug" {
			t.Errorf("recovered %v, want the original panic", r)
		}
	}()
	p.Execute(rt.NopMonitor{}, []float64{0})
	t.Fatal("expected panic to propagate")
}

func TestWeakDistanceClosure(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Boundary{})
	if got := w([]float64{1.0}); got != 0 {
		t.Errorf("W(1) = %v, want 0 (x = 1 is a boundary value)", got)
	}
	if got := w([]float64{10.0}); got <= 0 {
		t.Errorf("W(10) = %v, want > 0", got)
	}
}

func TestFig2Semantics(t *testing.T) {
	// Concrete semantics cross-check of the port: input 0 takes both
	// branches (0 <= 1, then y = 1 <= 4); input 3 takes neither
	// (3 > 1, y = 9 > 4).
	p := progs.Fig2()
	var trace []bool
	mon := &branchRecorder{out: &trace}
	p.Execute(mon, []float64{0})
	if len(trace) != 2 || !trace[0] || !trace[1] {
		t.Errorf("Fig2(0) branch outcomes = %v, want [true true]", trace)
	}
	trace = nil
	p.Execute(mon, []float64{3})
	if len(trace) != 2 || trace[0] || trace[1] {
		t.Errorf("Fig2(3) branch outcomes = %v, want [false false]", trace)
	}
}

type branchRecorder struct {
	out *[]bool
}

func (m *branchRecorder) Reset() {}
func (m *branchRecorder) Branch(site int, op fp.CmpOp, a, b float64) {
	*m.out = append(*m.out, op.Eval(a, b))
}
func (m *branchRecorder) FPOp(int, float64) bool { return false }
func (m *branchRecorder) Value() float64         { return 0 }

func TestFig1Motivating(t *testing.T) {
	// The paper's §1 example: under round-to-nearest,
	// x = 0.9999999999999999 enters the branch and violates the
	// assertion (x + 1 == 2).
	x := 0.9999999999999999
	r := progs.Fig1aCheck(x)
	if !r.Entered || !r.Violated {
		t.Errorf("Fig1a(%v) = %+v, want entered and violated", x, r)
	}
	// An ordinary input does not violate it.
	r = progs.Fig1aCheck(0.5)
	if !r.Entered || r.Violated {
		t.Errorf("Fig1a(0.5) = %+v, want entered and not violated", r)
	}
	if math.Nextafter(1.0, 0) != x {
		t.Errorf("sanity: 0.9999999999999999 should be the predecessor of 1")
	}
}

// echoMonitor reports the first operand of the last branch as the weak
// distance, so W(x) = x[0] bit for bit.
type echoMonitor struct{ w float64 }

func (m *echoMonitor) Reset()                                 { m.w = -1 }
func (m *echoMonitor) Branch(_ int, _ fp.CmpOp, a, _ float64) { m.w = a }
func (m *echoMonitor) FPOp(int, float64) bool                 { return false }
func (m *echoMonitor) Value() float64                         { return m.w }

// echoProgram returns a one-input program whose Run calls are counted.
func echoProgram(runs *int) *rt.Program {
	return &rt.Program{
		Name: "echo",
		Dim:  1,
		Run: func(ctx *rt.Ctx, in []float64) {
			*runs++
			ctx.Cmp(0, fp.LT, in[0], 0)
		},
	}
}

func TestWeakDistanceRepeatExecutesOnce(t *testing.T) {
	var runs int
	w := echoProgram(&runs).WeakDistance(&echoMonitor{})
	for i := 0; i < 5; i++ {
		if got := w([]float64{2.5}); got != 2.5 {
			t.Fatalf("W(2.5) = %v", got)
		}
	}
	if runs != 1 {
		t.Errorf("5 calls on one input ran the program %d times, want 1", runs)
	}
}

func TestWeakDistanceKeysAreExactBits(t *testing.T) {
	one := 1.0
	pairs := [][2]float64{
		{0, math.Copysign(0, -1)},
		{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)},
		{one, math.Nextafter(one, 2)},
		{one, math.Nextafter(one, 0)},
	}
	for _, pr := range pairs {
		var runs int
		w := echoProgram(&runs).WeakDistance(&echoMonitor{})
		for i, x := range pr {
			got := w([]float64{x})
			if math.Float64bits(got) != math.Float64bits(x) {
				t.Errorf("W(%#x) returned %#x", math.Float64bits(x), math.Float64bits(got))
			}
			if runs != i+1 {
				t.Errorf("input %#x after %#x was not executed", math.Float64bits(x), math.Float64bits(pr[0]))
			}
		}
	}
}

func TestWeakDistanceCollisionEvicts(t *testing.T) {
	var runs int
	w := echoProgram(&runs).WeakDistance(&echoMonitor{})
	a := 1.0
	w([]float64{a})
	// Find an input sharing a's slot: after it runs, a runs again.
	var b float64
	for i := 1; i < 1<<16 && b == 0; i++ {
		cand := a + float64(i)
		w([]float64{cand})
		before := runs
		if got := w([]float64{a}); got != a {
			t.Fatalf("W(a) = %v after W(%v), want %v", got, cand, a)
		}
		if runs > before {
			b = cand
		}
	}
	if b == 0 {
		t.Fatal("no input collided with a")
	}
	// a now holds the slot; b must run again and return its own value.
	before := runs
	if got := w([]float64{b}); got != b || runs != before+1 {
		t.Errorf("W(b) = %v with %d runs, want %v from 1 run", got, runs-before, b)
	}
}

func TestWeakDistanceMonitorHoldsLastExecuted(t *testing.T) {
	var runs int
	mon := &echoMonitor{}
	w := echoProgram(&runs).WeakDistance(mon)
	w([]float64{3})
	w([]float64{4})
	w([]float64{3}) // remembered: not executed
	if runs != 2 || mon.w != 4 {
		t.Errorf("runs = %d, monitor holds %v; want 2 runs and the last executed input 4", runs, mon.w)
	}
}
