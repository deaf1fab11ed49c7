package opt_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/rt"
)

// fixtureProgram compiles the named function of a testdata fixture for
// the VM engine.
func fixtureProgram(t *testing.T, file, fn string) *rt.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ir.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	p, err := interp.New(mod).Program(fn)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// countingMonitor counts executions: Execute resets the monitor once
// per run.
type countingMonitor struct {
	rt.Monitor
	runs int
}

func (m *countingMonitor) Reset() { m.runs++; m.Monitor.Reset() }

// TestWeakDistanceMemoInvisible runs every registered backend over the
// remembering weak distance and over plain execution of the same
// program and monitor: the results and the recorded sample traces must
// be identical, while the remembering objective never executes the
// program more often, and over all backends executes it less. (A search
// that never revisits a point, such as random search, gains nothing.)
func TestWeakDistanceMemoInvisible(t *testing.T) {
	for _, fx := range []struct{ file, fn string }{
		{"fig2.fpl", "prog"},
		{"sum3.fpl", "prog"},
	} {
		p := fixtureProgram(t, fx.file, fx.fn)
		var plainTotal, memoTotal int
		for _, name := range opt.BackendNames() {
			t.Run(fx.file+"/"+name, func(t *testing.T) {
				run := func(memo bool) (opt.Result, *opt.Trace, int) {
					be, err := opt.BackendByName(name)
					if err != nil {
						t.Fatal(err)
					}
					mon := &countingMonitor{Monitor: &instrument.Boundary{}}
					inst := p.Instance()
					obj := opt.Objective(func(x []float64) float64 { return inst.Execute(mon, x) })
					if memo {
						obj = opt.Objective(inst.WeakDistance(mon))
					}
					tr := &opt.Trace{}
					r := be.Minimize(obj, p.Dim, opt.Config{
						Seed: 1, MaxEvals: 3000, Trace: tr,
						Bounds: []opt.Bound{{Lo: -100, Hi: 100}, {Lo: -100, Hi: 100}, {Lo: -100, Hi: 100}}[:p.Dim],
					})
					return r, tr, mon.runs
				}
				want, wantTr, plainRuns := run(false)
				got, gotTr, memoRuns := run(true)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("result differs:\nmemo  %+v\nplain %+v", got, want)
				}
				if !reflect.DeepEqual(gotTr, wantTr) {
					t.Errorf("trace differs (%d vs %d samples)", gotTr.Len(), wantTr.Len())
				}
				if memoRuns > plainRuns {
					t.Errorf("memo executed the program %d times, plain execution %d", memoRuns, plainRuns)
				}
				plainTotal += plainRuns
				memoTotal += memoRuns
			})
		}
		if memoTotal >= plainTotal {
			t.Errorf("%s: memo executed the program %d times over all backends, plain execution %d",
				fx.file, memoTotal, plainTotal)
		}
	}
}

// TestWeakDistanceSteadyStateAllocs extends TestSteadyStateAllocs to a
// real weak distance over the VM: a fresh WeakDistance closure per
// search, as the analyses build one per start. The closure's table is
// allocated once per search, so evaluation stays at ~0 allocs.
func TestWeakDistanceSteadyStateAllocs(t *testing.T) {
	const evals = 4000
	p := fixtureProgram(t, "fig2.fpl", "prog").Instance()
	mon := &instrument.Boundary{}
	cfg := opt.Config{Seed: 1, MaxEvals: evals, Bounds: []opt.Bound{{Lo: -100, Hi: 100}}}
	avg := testing.AllocsPerRun(5, func() {
		(&opt.Basinhopping{}).Minimize(p.WeakDistance(mon), 1, cfg)
	})
	if perEval := avg / evals; perEval > 0.05 {
		t.Errorf("%.1f allocs per search (%.4f per eval), want ~0 per eval", avg, perEval)
	}
}
