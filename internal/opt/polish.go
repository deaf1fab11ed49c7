package opt

import (
	"repro/internal/fp"
)

// latticePolish is a discrete descent on the float64 lattice: from the
// evaluator-wide best point (e.bestX, the best of the whole search, not
// the calling phase's own minimum) it walks coordinate-wise in
// geometrically growing ULP steps while the objective improves. A
// caller that polishes after every phase, such as a basin-hopping hop
// that did not improve the best, therefore re-probes the same ±1-ULP
// neighbours each time; rt.Program.WeakDistance remembers recent inputs so
// those repeats do not re-execute the program. Continuous minimizers
// converge to within a few hundred ULPs of a weak-distance zero but
// rarely land on it exactly; because floating-point analysis problems
// live on the discrete lattice F^N (Def. 2.1), this final discrete phase
// turns "within 1e-13 of the zero" into the exact zero the theory
// requires (W(x*) = 0, Algorithm 2 step 3).
func latticePolish(e *evaluator, cfg Config) {
	if e.bestX == nil || e.bestF == 0 {
		return
	}
	x := make([]float64, len(e.bestX))
	copy(x, e.bestX)
	f := e.bestF

	improved := true
	for improved && !e.done() {
		improved = false
		for i := range x {
			for _, sign := range [2]int64{1, -1} {
				step := int64(1)
				for !e.done() {
					old := x[i]
					cand := cfg.bound(i).Clamp(fp.AddULPs(old, sign*step))
					if cand == old {
						break
					}
					x[i] = cand
					fc := e.eval(x)
					if fc < f {
						f = fc
						improved = true
						if f == 0 {
							return
						}
						if step < 1<<40 {
							step *= 2
						}
					} else {
						x[i] = old
						break
					}
				}
			}
		}
	}
}
