package analysis

import (
	"repro/internal/opt"
	"repro/internal/rt"
)

// batchObjective builds a lane-chunked batch evaluator of a program's
// weak distance: its own program instance plus a bank of independent
// monitors from the factory, evaluating each submitted batch as
// lane-parallel VM sweeps of at most `lanes` inputs. The bank grows
// only as wide as the widest sweep actually submitted — never wider
// than the per-start eval budget the optimizer truncates batches to —
// so a huge `lanes` knob costs nothing it does not use. The engine's
// batch contract (rt.Program.RunBatch) makes every sweep bit-identical
// to serial execution, so a batch evaluator and the scalar weak
// distance built from the same monitor factory are interchangeable.
// Like a scalar instance it is single-goroutine.
func batchObjective(p *rt.Program, lanes int, mk func() rt.Monitor) opt.BatchObjective {
	inst := p.Instance()
	var mons []rt.Monitor
	return opt.BatchFunc(func(xs [][]float64, out []float64) {
		for len(xs) > 0 {
			n := min(len(xs), lanes)
			for len(mons) < n {
				mons = append(mons, mk())
			}
			inst.ExecuteBatch(mons[:n], xs[:n], out[:n])
			xs, out = xs[n:], out[n:]
		}
	})
}

// batchFactory adapts batchObjective to the opt.ParallelConfig.Batch
// per-start factory, or nil when lanes does not ask for batching —
// every analysis threads its Lanes knob through here, so a zero knob
// keeps the historical scalar path bit-for-bit.
func batchFactory(p *rt.Program, lanes int, mk func() rt.Monitor) func(int) opt.BatchObjective {
	if lanes < 2 {
		return nil
	}
	return func(int) opt.BatchObjective {
		return batchObjective(p, lanes, mk)
	}
}
