package opt_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/opt"
)

// flatAbs has an exact-zero plateau [c-1, c+1], reachable by every
// backend, so FoundZero outcomes are exercised deterministically.
func flatAbs(c float64) opt.Objective {
	return func(x []float64) float64 {
		return math.Max(math.Abs(x[0]-c)-1, 0)
	}
}

// TestParallelStartsMatchesSerialBackend verifies that every executed
// start of the parallel driver reproduces a plain serial backend run
// with the same derived seed, bit for bit.
func TestParallelStartsMatchesSerialBackend(t *testing.T) {
	backend := &opt.Basinhopping{}
	const starts, seed, stride = 6, 42, 7919
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}

	got := opt.ParallelStarts(backend, func(int) opt.Objective { return flatAbs(50) },
		1, opt.ParallelConfig{
			Starts: starts, Workers: 4, Seed: seed, SeedStride: stride,
			MaxEvals: 500, Bounds: bounds,
		})

	for s := 0; s < starts; s++ {
		want := backend.Minimize(flatAbs(50), 1, opt.Config{
			Seed: seed + int64(s)*stride, MaxEvals: 500, Bounds: bounds,
		})
		if got[s].Skipped {
			t.Fatalf("start %d skipped without StopAtZero", s)
		}
		if !reflect.DeepEqual(got[s].Result, want) {
			t.Errorf("start %d: parallel %+v != serial %+v", s, got[s].Result, want)
		}
	}
}

// TestParallelStartsWorkerInvariance verifies the core determinism
// contract: identical per-start results for every worker count. Each
// start's full (x, f) evaluation stream is recorded by the objective
// itself and compared, as are the zero traces RecordTrace keeps.
func TestParallelStartsWorkerInvariance(t *testing.T) {
	type eval struct {
		x []float64
		f float64
	}
	const starts = 8
	run := func(workers int) ([]opt.StartResult, [][]eval) {
		streams := make([][]eval, starts)
		res := opt.ParallelStarts(&opt.Basinhopping{}, func(s int) opt.Objective {
			obj := flatAbs(9)
			return func(x []float64) float64 {
				f := obj(x)
				streams[s] = append(streams[s], eval{append([]float64(nil), x...), f})
				return f
			}
		}, 1, opt.ParallelConfig{
			Starts: starts, Workers: workers, Seed: 7, SeedStride: 1000003,
			MaxEvals: 400, Bounds: []opt.Bound{{Lo: -20, Hi: 20}},
			RecordTrace: true,
		})
		return res, streams
	}
	base, baseStreams := run(1)
	zeros := 0
	for s := range base {
		zeros += len(base[s].Trace.Samples())
		if base[s].Trace.Len() != base[s].Evals {
			t.Errorf("start %d: trace counts %d evals, result says %d", s, base[s].Trace.Len(), base[s].Evals)
		}
		// The zero trace is exactly the stream's zeros, at their
		// 1-based positions in it.
		var want []opt.Sample
		for n, e := range baseStreams[s] {
			if e.f == 0 {
				want = append(want, opt.Sample{N: n + 1, X: e.x, F: e.f})
			}
		}
		if !reflect.DeepEqual(base[s].Trace.Samples(), want) {
			t.Errorf("start %d: zero trace %v, stream zeros %v", s, base[s].Trace.Samples(), want)
		}
	}
	if zeros == 0 {
		t.Fatal("no start sampled a zero: the zero traces are not exercised")
	}
	for _, w := range []int{2, 8} {
		got, streams := run(w)
		for s := range base {
			if !reflect.DeepEqual(got[s].Result, base[s].Result) {
				t.Errorf("workers=%d start %d: %+v != %+v", w, s, got[s].Result, base[s].Result)
			}
			if !reflect.DeepEqual(streams[s], baseStreams[s]) {
				t.Errorf("workers=%d start %d: evaluation streams differ", w, s)
			}
			if !reflect.DeepEqual(got[s].Trace.Samples(), base[s].Trace.Samples()) ||
				got[s].Trace.Len() != base[s].Trace.Len() {
				t.Errorf("workers=%d start %d: zero traces differ", w, s)
			}
		}
	}
}

// TestParallelStartsDrain verifies the stop-at-zero contract: once the
// lowest accepted zero is known, every start at or below it has run,
// and the merged (serial-fold) outcome is worker-invariant.
func TestParallelStartsDrain(t *testing.T) {
	// Starts >= 3 see an objective that is zero everywhere; lower
	// starts see an unsatisfiable positive objective.
	factory := func(start int) opt.Objective {
		if start >= 3 {
			return func([]float64) float64 { return 0 }
		}
		return func(x []float64) float64 { return 1 + math.Abs(x[0]) }
	}
	for _, w := range []int{1, 4, 16} {
		got := opt.ParallelStarts(&opt.RandomSearch{}, factory, 1, opt.ParallelConfig{
			Starts: 16, Workers: w, Seed: 1, MaxEvals: 50,
			Bounds: []opt.Bound{{Lo: -1, Hi: 1}}, StopAtZero: true,
		})
		for s := 0; s <= 3; s++ {
			if got[s].Skipped {
				t.Fatalf("workers=%d: start %d skipped but is at or below the first zero", w, s)
			}
		}
		if !got[3].FoundZero || !got[3].ZeroAccepted {
			t.Fatalf("workers=%d: start 3 should find an accepted zero: %+v", w, got[3])
		}
		for s := 0; s < 3; s++ {
			if got[s].FoundZero {
				t.Errorf("workers=%d: start %d cannot find a zero", w, s)
			}
		}
	}
}

// TestParallelStartsAcceptGuard verifies that rejected zeros do not
// drain the queue: later starts still run and can supply the solution.
func TestParallelStartsAcceptGuard(t *testing.T) {
	zero := func(int) opt.Objective {
		return func([]float64) float64 { return 0 }
	}
	got := opt.ParallelStarts(&opt.RandomSearch{}, zero, 1, opt.ParallelConfig{
		Starts: 6, Workers: 3, Seed: 1, MaxEvals: 10,
		Bounds:     []opt.Bound{{Lo: -1, Hi: 1}},
		StopAtZero: true,
		Accept:     func(start int, _ opt.Result) bool { return start >= 2 },
	})
	for s := 0; s <= 2; s++ {
		if got[s].Skipped {
			t.Fatalf("start %d skipped; first accepted zero is at 2", s)
		}
	}
	if !got[2].ZeroAccepted {
		t.Fatal("start 2's zero should be accepted")
	}
	for s := 0; s < 2; s++ {
		if got[s].ZeroAccepted {
			t.Errorf("start %d's zero should be rejected by the guard", s)
		}
	}
}
