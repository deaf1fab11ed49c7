package opt

// Trace records the sampling sequence of a minimization run. The paper's
// figures 3(c), 4(c) and 9 plot exactly this: the n-th sampled input (and
// derived statistics) against n.
//
// A Trace built by ParallelStarts for RecordTrace keeps only the
// exact-zero samples: Samples() is then the zeros in evaluation order,
// each Sample.N still its 1-based position in the start's full stream,
// and Len() still counts every evaluation.
type Trace struct {
	// Cap bounds the number of retained samples (0 = unlimited). When
	// the cap is hit, recording keeps counting but stops storing, so
	// Len() stays truthful while memory stays bounded.
	Cap int

	zerosOnly bool
	samples   []Sample
	total     int
}

// Sample is one recorded objective evaluation.
type Sample struct {
	N int       // 1-based evaluation index
	X []float64 // sampled input (copied)
	F float64   // objective value
}

func (t *Trace) record(x []float64, f float64) {
	t.total++
	if t.zerosOnly && f != 0 {
		return
	}
	if t.Cap > 0 && len(t.samples) >= t.Cap {
		return
	}
	xc := make([]float64, len(x))
	copy(xc, x)
	t.samples = append(t.samples, Sample{N: t.total, X: xc, F: f})
}

// Len returns the total number of evaluations recorded (including any
// that were counted but not stored).
func (t *Trace) Len() int { return t.total }

// Samples returns the stored samples in evaluation order.
func (t *Trace) Samples() []Sample { return t.samples }

// Zeros returns the stored samples whose objective value is exactly zero
// — for weak distances these are precisely the reported solutions
// (Def. 3.1(b)).
func (t *Trace) Zeros() []Sample {
	var zs []Sample
	for _, s := range t.samples {
		if s.F == 0 {
			zs = append(zs, s)
		}
	}
	return zs
}
