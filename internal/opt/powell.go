package opt

import (
	"math"
)

// Powell is Powell's conjugate-direction method (Powell 1964): a local,
// derivative-free minimizer that repeatedly performs exact-ish line
// minimizations along an evolving direction set. It is the third backend
// of the paper's Table 1 sanity check.
//
// The zero value is ready to use.
type Powell struct {
	// FTol is the relative function-decrease tolerance per outer
	// iteration; zero selects 1e-10.
	FTol float64
	// MaxLineEvals bounds each line minimization; zero selects 60.
	MaxLineEvals int
}

// Name implements Minimizer and LocalMinimizer.
func (p *Powell) Name() string { return "Powell" }

func (p *Powell) ftol() float64 {
	if p.FTol == 0 {
		return 1e-10
	}
	return p.FTol
}

func (p *Powell) lineEvals() int {
	if p.MaxLineEvals == 0 {
		return 60
	}
	return p.MaxLineEvals
}

// MinimizeFrom implements LocalMinimizer.
func (p *Powell) MinimizeFrom(obj Objective, x0 []float64, cfg Config) Result {
	e := newEvaluator(obj, cfg, 400*len(x0)+600)
	return p.run(e, x0, cfg)
}

// Minimize implements Minimizer by starting from a random point.
func (p *Powell) Minimize(obj Objective, dim int, cfg Config) Result {
	rng := newRand(cfg.Seed)
	return p.MinimizeFrom(obj, randPoint(rng, dim, cfg), cfg)
}

func (p *Powell) run(e *evaluator, x0 []float64, cfg Config) Result {
	dim := len(x0)
	// All working vectors are allocated once here and reused by every
	// outer iteration and line minimization: steady-state search
	// performs zero heap allocations per objective evaluation.
	x := make([]float64, dim)
	copy(x, x0)
	clampInto(x, cfg)
	fx := e.eval(x)

	// Direction set starts as the coordinate axes, carved out of one
	// backing array; newDir is the spare row that direction replacement
	// rotates through the set.
	backing := make([]float64, dim*dim)
	dirs := make([][]float64, dim)
	for i := range dirs {
		dirs[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
		dirs[i][i] = 1
	}
	newDir := make([]float64, dim)

	xt := make([]float64, dim)
	xPrev := make([]float64, dim)
	probe := make([]float64, dim)
	iters := 0
	for !e.done() {
		iters++
		copy(xPrev, x)
		fPrev := fx
		biggestDrop := 0.0
		biggestIdx := 0

		for i := 0; i < dim && !e.done(); i++ {
			fBefore := fx
			fx = p.lineMin(e, x, dirs[i], fx, cfg, probe)
			clampInto(x, cfg)
			if drop := fBefore - fx; drop > biggestDrop {
				biggestDrop = drop
				biggestIdx = i
			}
		}

		// Convergence test on relative decrease.
		if 2*(fPrev-fx) <= p.ftol()*(math.Abs(fPrev)+math.Abs(fx)+1e-300) {
			break
		}
		if e.done() {
			break
		}

		// Extrapolated point along the overall displacement.
		anyMove := false
		for j := 0; j < dim; j++ {
			newDir[j] = x[j] - xPrev[j]
			if newDir[j] != 0 {
				anyMove = true
			}
			xt[j] = 2*x[j] - xPrev[j]
		}
		if !anyMove {
			break
		}
		clampInto(xt, cfg)
		ft := e.eval(xt)
		if ft < fPrev {
			// Powell's criterion for replacing a direction with the
			// overall displacement direction.
			t := 2*(fPrev-2*fx+ft)*sq(fPrev-fx-biggestDrop) - biggestDrop*sq(fPrev-ft)
			if t < 0 {
				fx = p.lineMin(e, x, newDir, fx, cfg, probe)
				clampInto(x, cfg)
				// Rotate: the displaced row becomes the next newDir
				// buffer (its contents are rewritten before use).
				spare := dirs[biggestIdx]
				dirs[biggestIdx] = dirs[dim-1]
				dirs[dim-1] = newDir
				newDir = spare
			}
		}
	}
	// Discrete final phase (see latticePolish).
	latticePolish(e, cfg)
	return e.result(iters)
}

func sq(v float64) float64 { return v * v }

// lineMin minimizes f(x + t*dir) over t, updating x in place and
// returning the new function value. It brackets a minimum by geometric
// expansion and then refines with golden-section search — robust for the
// discontinuous, plateau-riddled objectives weak distances produce.
// probe is caller-provided scratch for the candidate points.
func (p *Powell) lineMin(e *evaluator, x, dir []float64, fx float64, cfg Config, probe []float64) float64 {
	dim := len(x)
	at := func(t float64) float64 {
		for j := 0; j < dim; j++ {
			probe[j] = x[j] + t*dir[j]
		}
		clampInto(probe, cfg)
		return e.eval(probe)
	}

	budget := p.lineEvals()
	used := 0
	evalT := func(t float64) float64 {
		used++
		return at(t)
	}

	// Initial step relative to the current position magnitude so the
	// search works across exponent regimes.
	scale := 0.0
	for j := 0; j < dim; j++ {
		scale = math.Max(scale, math.Abs(x[j]))
	}
	h := 1e-2 * (scale + 1)

	// Probe both directions.
	if e.done() {
		return fx
	}
	fPlus := evalT(h)
	if e.done() {
		return updateIf(x, dir, h, fPlus, fx)
	}
	fMinus := evalT(-h)

	var tLo, tHi, tBest, fBest float64
	switch {
	case fPlus < fx && fPlus <= fMinus:
		tBest, fBest = h, fPlus
		tLo = 0
	case fMinus < fx:
		tBest, fBest = -h, fMinus
		tLo = 0
		h = -h
	default:
		// Neither side improves: shrink toward zero a few times in case
		// the minimum is closer than h.
		tBest, fBest = 0, fx
		for k := 0; k < 8 && used < budget && !e.done(); k++ {
			h /= 4
			if f := evalT(h); f < fBest {
				tBest, fBest = h, f
			}
			if f := evalT(-h); f < fBest {
				tBest, fBest = -h, f
			}
			if fBest < fx {
				break
			}
		}
		if fBest >= fx {
			return fx
		}
		tLo, h = 0, tBest
	}

	// Geometric expansion until the function stops decreasing.
	t := tBest
	for used < budget && !e.done() {
		t *= 2
		f := evalT(t)
		if f < fBest {
			tLo = tBest
			tBest, fBest = t, f
			continue
		}
		tHi = t
		break
	}
	if tHi == 0 {
		tHi = t
	}

	// Golden-section refinement on [tLo, tHi] around tBest.
	const phi = 0.6180339887498949
	lo, hi := tLo, tHi
	if lo > hi {
		lo, hi = hi, lo
	}
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := math.Inf(1), math.Inf(1)
	if used < budget && !e.done() {
		fc = evalT(c)
	}
	if used < budget && !e.done() {
		fd = evalT(d)
	}
	for used < budget && !e.done() && b-a > 1e-14*(math.Abs(a)+math.Abs(b)+1e-300) {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = evalT(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = evalT(d)
		}
		if fc < fBest {
			tBest, fBest = c, fc
		}
		if fd < fBest {
			tBest, fBest = d, fd
		}
	}

	return updateIf(x, dir, tBest, fBest, fx)
}

// updateIf moves x along dir by t when fNew improves on fOld, returning
// the better value.
func updateIf(x, dir []float64, t, fNew, fOld float64) float64 {
	if fNew < fOld {
		for j := range x {
			x[j] += t * dir[j]
		}
		return fNew
	}
	return fOld
}
